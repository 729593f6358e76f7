package disksim

import (
	"bytes"
	"testing"
	"testing/quick"

	"mheta/internal/vclock"
)

func testParams() Params {
	return Params{
		ReadSeek:     1e-3,
		WriteSeek:    2e-3,
		ReadPerByte:  1e-6,
		WritePerByte: 2e-6,
		IssueCost:    1e-4,
	}
}

func TestReadChargesSeekPlusBytes(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 1000)
	clk := vclock.NewClock()
	_, dur := d.Read(clk, "x", 0, 100)
	want := vclock.Duration(1e-3 + 100e-6)
	if dur != want {
		t.Fatalf("read charged %v, want %v", dur, want)
	}
	if clk.Now() != vclock.Time(want) {
		t.Fatalf("clock at %v, want %v", clk.Now(), want)
	}
}

func TestWriteChargesSeekPlusBytes(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 1000)
	clk := vclock.NewClock()
	dur := d.Write(clk, "x", 0, make([]byte, 50))
	want := vclock.Duration(2e-3 + 100e-6)
	if dur != want {
		t.Fatalf("write charged %v, want %v", dur, want)
	}
}

func TestStoreAndExtentRoundTrip(t *testing.T) {
	d := New(testParams(), nil)
	data := []byte{1, 2, 3, 4}
	d.Store("v", data)
	got := d.Extent("v")
	if !bytes.Equal(got, data) {
		t.Fatalf("Extent = %v, want %v", got, data)
	}
	// Extent must be a copy.
	got[0] = 99
	if d.Extent("v")[0] != 1 {
		t.Fatal("Extent aliases the store")
	}
	if d.Size("v") != 4 || d.Size("missing") != 0 {
		t.Fatal("Size wrong")
	}
}

// TestReadsAreViews pins the disk's view contract in both modes: Read
// and PrefetchWait return views of the extent, writing a view back
// charges and counts exactly as writing a separate buffer, and Extent
// alone returns a copy.
func TestReadsAreViews(t *testing.T) {
	for _, mode := range []Mode{ModeNormal, ModeInstrument} {
		d := New(testParams(), nil)
		d.SetMode(mode)
		data := []byte{1, 2, 3, 4}
		if n := testing.AllocsPerRun(10, func() { d.Store("v", data) }); n != 0 {
			t.Fatalf("mode %d: Store allocates %v times, want 0 (it takes the buffer)", mode, n)
		}
		clk := vclock.NewClock()
		chunk, _ := d.Read(clk, "v", 0, 2)
		chunk[1] = 20
		tag := d.PrefetchIssue(clk, "v", 2, 2)
		pf, _ := d.PrefetchWait(clk, tag)
		pf[0] = 30
		if !bytes.Equal(data, []byte{1, 20, 30, 4}) {
			t.Fatalf("mode %d: Read or PrefetchWait handed out a copy: extent %v", mode, data)
		}
		got := d.Extent("v")
		got[0] = 99
		if data[0] != 1 {
			t.Fatalf("mode %d: Extent aliases the stored buffer", mode)
		}
	}
}

// TestAliasedWriteChargesLikeACopy writes a view back over itself on
// one disk and a separate buffer on another: the clocks, the charged
// durations and every counter must agree.
func TestAliasedWriteChargesLikeACopy(t *testing.T) {
	a, b := New(testParams(), nil), New(testParams(), nil)
	a.Create("x", 64)
	b.Create("x", 64)
	ca, cb := vclock.NewClock(), vclock.NewClock()
	view, _ := a.Read(ca, "x", 8, 16)
	own, _ := b.Read(cb, "x", 8, 16)
	own = append([]byte(nil), own...)
	view[0], own[0] = 7, 7
	da := a.Write(ca, "x", 8, view)
	db := b.Write(cb, "x", 8, own)
	if da != db || ca.Now() != cb.Now() {
		t.Fatalf("aliased write charged %v (clock %v), copied write %v (clock %v)", da, ca.Now(), db, cb.Now())
	}
	if a.Reads != b.Reads || a.Writes != b.Writes || a.BytesRead != b.BytesRead || a.BytesWritten != b.BytesWritten {
		t.Fatalf("counters differ: aliased %d/%d/%d/%d, copied %d/%d/%d/%d",
			a.Reads, a.Writes, a.BytesRead, a.BytesWritten, b.Reads, b.Writes, b.BytesRead, b.BytesWritten)
	}
	if !bytes.Equal(a.Extent("x"), b.Extent("x")) {
		t.Fatal("aliased and copied writes left different extents")
	}
}

// TestReadsDoNotAllocate holds warmed Read and PrefetchWait to zero
// allocations: they hand out views.
func TestReadsDoNotAllocate(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 4096)
	clk := vclock.NewClock()
	if n := testing.AllocsPerRun(100, func() { d.Read(clk, "x", 512, 1024) }); n != 0 {
		t.Fatalf("Read allocates %v times, want 0", n)
	}
	// AllocsPerRun makes one warm-up call and then 100 measured ones.
	tags := make([]int, 101)
	for i := range tags {
		tags[i] = d.PrefetchIssue(clk, "x", 8*i, 8)
	}
	k := 0
	if n := testing.AllocsPerRun(100, func() { d.PrefetchWait(clk, tags[k]); k++ }); n != 0 {
		t.Fatalf("PrefetchWait allocates %v times, want 0", n)
	}
}

func TestExtentsSorted(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("b", 1)
	d.Create("a", 1)
	d.Create("c", 1)
	names := d.Extents()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Extents = %v", names)
	}
}

func TestReadWriteDataIntegrity(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 100)
	clk := vclock.NewClock()
	payload := []byte("hello disk")
	d.Write(clk, "x", 10, payload)
	got, _ := d.Read(clk, "x", 10, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q", got)
	}
}

func TestReadOutOfRangePanics(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read did not panic")
		}
	}()
	d.Read(vclock.NewClock(), "x", 5, 10)
}

func TestReadMissingExtentPanics(t *testing.T) {
	d := New(testParams(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("missing-extent read did not panic")
		}
	}()
	d.Read(vclock.NewClock(), "nope", 0, 1)
}

func TestPrefetchOverlapsComputation(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 10000)
	clk := vclock.NewClock()
	tag := d.PrefetchIssue(clk, "x", 0, 1000) // read cost 1e-3 + 1e-3 = 2e-3
	afterIssue := clk.Now()
	if afterIssue != vclock.Time(testParams().IssueCost) {
		t.Fatalf("issue charged %v, want %v", afterIssue, testParams().IssueCost)
	}
	// Compute longer than the read: the wait must be free.
	clk.Advance(10e-3)
	_, waited := d.PrefetchWait(clk, tag)
	if waited != 0 {
		t.Fatalf("wait = %v, want 0 (fully masked)", waited)
	}
}

func TestPrefetchWaitBlocksWhenComputeShort(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 10000)
	clk := vclock.NewClock()
	tag := d.PrefetchIssue(clk, "x", 0, 1000)
	// No compute: wait pays the remaining latency.
	_, waited := d.PrefetchWait(clk, tag)
	if waited <= 0 {
		t.Fatalf("wait = %v, want > 0", waited)
	}
	want := vclock.Duration(1e-3 + 1000e-6) // full read cost
	if waited != want {
		t.Fatalf("wait = %v, want %v", waited, want)
	}
}

func TestPrefetchReturnsData(t *testing.T) {
	d := New(testParams(), nil)
	d.Store("x", []byte{9, 8, 7, 6})
	clk := vclock.NewClock()
	tag := d.PrefetchIssue(clk, "x", 1, 2)
	data, _ := d.PrefetchWait(clk, tag)
	if !bytes.Equal(data, []byte{8, 7}) {
		t.Fatalf("prefetch data %v", data)
	}
}

func TestInstrumentModeTransform(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 10000)
	d.SetMode(ModeInstrument)
	clk := vclock.NewClock()
	tag := d.PrefetchIssue(clk, "x", 0, 1000)
	// Figure 5: the issue blocked for the full synchronous read.
	want := vclock.Time(1e-3 + 1000e-6)
	if clk.Now() != want {
		t.Fatalf("instrumented issue advanced to %v, want %v", clk.Now(), want)
	}
	before := clk.Now()
	_, waited := d.PrefetchWait(clk, tag)
	if waited != 0 || clk.Now() != before {
		t.Fatal("instrumented wait must be a no-op")
	}
}

func TestDiskQueueSerialises(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 10000)
	clk := vclock.NewClock()
	// Two prefetches issued back to back: the second starts only after
	// the first completes.
	t1 := d.PrefetchIssue(clk, "x", 0, 1000)
	t2 := d.PrefetchIssue(clk, "x", 1000, 1000)
	_, w1 := d.PrefetchWait(clk, t1)
	_, w2 := d.PrefetchWait(clk, t2)
	if w1 <= 0 || w2 <= 0 {
		t.Fatalf("waits %v, %v", w1, w2)
	}
	// First issue charges 1e-4 and the disk is busy [1e-4, 2.1e-3); the
	// second read queues behind it and finishes at 4.1e-3, which is where
	// both waits leave the clock (issue costs overlap the first read).
	want := vclock.Time(1e-4 + 2*(1e-3+1000e-6))
	if diff := float64(clk.Now() - want); diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("clock %v, want %v", clk.Now(), want)
	}
}

func TestWriteWaitsForBusyDisk(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 10000)
	clk := vclock.NewClock()
	tag := d.PrefetchIssue(clk, "x", 0, 1000) // disk busy ~2e-3
	dur := d.Write(clk, "x", 0, make([]byte, 10))
	// The write had to queue behind the prefetch.
	if dur <= vclock.Duration(2e-3) {
		t.Fatalf("write finished in %v despite busy disk", dur)
	}
	d.PrefetchWait(clk, tag)
}

func TestOutstandingPrefetches(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 100)
	clk := vclock.NewClock()
	tag := d.PrefetchIssue(clk, "x", 0, 10)
	if d.OutstandingPrefetches() != 1 {
		t.Fatal("outstanding != 1")
	}
	d.PrefetchWait(clk, tag)
	if d.OutstandingPrefetches() != 0 {
		t.Fatal("outstanding != 0 after wait")
	}
}

func TestWaitUnknownTagPanics(t *testing.T) {
	d := New(testParams(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown tag did not panic")
		}
	}()
	d.PrefetchWait(vclock.NewClock(), 42)
}

func TestCounters(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 1000)
	clk := vclock.NewClock()
	d.Read(clk, "x", 0, 100)
	d.Write(clk, "x", 0, make([]byte, 200))
	tag := d.PrefetchIssue(clk, "x", 0, 50)
	d.PrefetchWait(clk, tag)
	if d.Reads != 2 || d.Writes != 1 || d.Prefetches != 1 {
		t.Fatalf("counters: reads=%d writes=%d prefetches=%d", d.Reads, d.Writes, d.Prefetches)
	}
	if d.BytesRead != 150 || d.BytesWritten != 200 {
		t.Fatalf("bytes: read=%d written=%d", d.BytesRead, d.BytesWritten)
	}
}

func TestResetTiming(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 100)
	clk := vclock.NewClock()
	d.Read(clk, "x", 0, 10)
	d.ResetTiming()
	if d.Reads != 0 || d.BytesRead != 0 {
		t.Fatal("ResetTiming did not clear counters")
	}
	// Data survives.
	if d.Size("x") != 100 {
		t.Fatal("ResetTiming dropped data")
	}
	// Disk no longer busy: a fresh clock read charges exactly the cost.
	clk2 := vclock.NewClock()
	_, dur := d.Read(clk2, "x", 0, 10)
	if dur != vclock.Duration(1e-3+10e-6) {
		t.Fatalf("post-reset read charged %v", dur)
	}
}

func TestScale(t *testing.T) {
	p := testParams().Scale(3)
	if p.ReadSeek != 3e-3 || p.WriteSeek != 6e-3 {
		t.Fatal("Scale seeks wrong")
	}
	if p.IssueCost != testParams().IssueCost {
		t.Fatal("Scale must not change the CPU-side issue cost")
	}
}

func TestReadCostLinearityProperty(t *testing.T) {
	p := testParams()
	f := func(a, b uint16) bool {
		lhs := p.ReadCost(int(a)) + p.ReadCost(int(b))
		rhs := p.ReadCost(int(a)+int(b)) + p.ReadSeek
		d := float64(lhs - rhs)
		return d > -1e-12 && d < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoisyDiskWithinBounds(t *testing.T) {
	d := New(testParams(), vclock.NewNoise(3, 0.02))
	d.Create("x", 1000)
	for i := 0; i < 100; i++ {
		clk := vclock.NewClock()
		d.ResetTiming()
		_, dur := d.Read(clk, "x", 0, 100)
		base := float64(testParams().ReadCost(100))
		if float64(dur) < base*0.98-1e-15 || float64(dur) > base*1.02+1e-15 {
			t.Fatalf("noisy read %v outside ±2%% of %v", dur, base)
		}
	}
}

func TestContentionScalesServiceTimes(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 1000)
	d.SetContention(3)
	clk := vclock.NewClock()
	_, dur := d.Read(clk, "x", 0, 100)
	want := vclock.Duration(3 * (1e-3 + 100e-6))
	if diff := float64(dur - want); diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("contended read %v, want %v", dur, want)
	}
}

func TestContentionDoesNotScaleIssueCost(t *testing.T) {
	d := New(testParams(), nil)
	d.Create("x", 1000)
	d.SetContention(4)
	clk := vclock.NewClock()
	tag := d.PrefetchIssue(clk, "x", 0, 10)
	if clk.Now() != vclock.Time(testParams().IssueCost) {
		t.Fatalf("issue charged %v, want plain IssueCost", clk.Now())
	}
	d.PrefetchWait(clk, tag)
}

func TestContentionClampedAtOne(t *testing.T) {
	d := New(testParams(), nil)
	d.SetContention(0.5)
	if d.Contention() != 1 {
		t.Fatalf("contention %v, want clamp to 1", d.Contention())
	}
}
