package mpi

import (
	"strings"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/netsim"
	"mheta/internal/vclock"
)

// testSpec returns a small homogeneous cluster with exact (noise-free)
// costs so timing assertions can be sharp.
func testSpec(n int) cluster.Spec {
	s, _ := cluster.Named("DC")
	spec := cluster.Spec{Name: "test", Net: s.Net, Disk: s.Disk}
	for i := 0; i < n; i++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeSpec{CPUPower: 1, MemoryBytes: 1 << 20, DiskScale: 1})
	}
	return spec
}

// op is one operation of a test rank's program: it returns false when
// it parked in a receive, and is called again once the rank is woken.
type op func(r *Rank) bool

// do wraps rank-local code that never parks.
func do(f func(r *Rank)) op { return func(r *Rank) bool { f(r); return true } }

// send is a Send as an op.
func send(dst, tag int, data []byte) op {
	return do(func(r *Rank) { r.Send(dst, tag, data) })
}

// recv receives from src with tag, parking until the message is sent,
// and stores the payload in *out when out is non-nil.
func recv(src, tag int, out *[]byte) op {
	ro := RecvOp{Src: src, Tag: tag}
	return func(r *Rank) bool {
		data, ok := r.TryRecv(&ro)
		if ok && out != nil {
			*out = data
		}
		return ok
	}
}

// run drives the per-rank programs (ranks without one finish at once)
// through World.Run and returns each rank's final clock.
func run(t *testing.T, w *World, progs map[int][]op) []vclock.Time {
	t.Helper()
	pc := make([]int, w.Size())
	_, err := w.Run(func(r *Rank) bool {
		ops := progs[r.Rank()]
		for ; pc[r.Rank()] < len(ops); pc[r.Rank()]++ {
			if !ops[pc[r.Rank()]](r) {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]vclock.Time, w.Size())
	for p := range times {
		times[p] = w.Rank(p).Now()
	}
	return times
}

// all gives every one of n ranks the program prog(rank).
func all(n int, prog func(rank int) []op) map[int][]op {
	progs := make(map[int][]op, n)
	for p := 0; p < n; p++ {
		progs[p] = prog(p)
	}
	return progs
}

func TestSendRecvDelivers(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	run(t, w, map[int][]op{
		0: {send(1, 5, []byte("payload"))},
		1: {recv(0, 5, &got)},
	})
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

// TestRecvTimingBlockedReceiver has rank 0 receive, so it is dispatched
// first and parks before rank 1 sends: the wait is charged on wake.
func TestRecvTimingBlockedReceiver(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	net := spec.Net
	times := run(t, w, map[int][]op{
		0: {recv(1, 1, nil)},
		1: {send(0, 1, make([]byte, 100))},
	})
	// Receiver finishes at os + wire + or.
	want := float64(net.SendCost(100) + net.TransferTime(100) + net.RecvCost(100))
	if got := float64(times[0]); !close(got, want) {
		t.Fatalf("receiver at %v, want %v", got, want)
	}
	// Sender finishes after just the send overhead.
	if got := float64(times[1]); !close(got, float64(net.SendCost(100))) {
		t.Fatalf("sender at %v", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d > -1e-12 && d < 1e-12
}

func TestRecvTimingLateReceiverPaysNoWait(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	net := spec.Net
	const delay = 1.0
	times := run(t, w, map[int][]op{
		0: {send(1, 1, make([]byte, 100))},
		// Arrive late: the message is already there.
		1: {do(func(r *Rank) { r.Compute(delay, 1) }), recv(0, 1, nil)},
	})
	want := delay + float64(net.RecvCost(100))
	if got := float64(times[1]); !close(got, want) {
		t.Fatalf("receiver at %v, want %v", got, want)
	}
}

func TestSendNeverBlocks(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	var sender, receiver []op
	receiver = append(receiver, do(func(r *Rank) { r.Compute(5, 1) }))
	for i := 0; i < 100; i++ {
		sender = append(sender, send(1, 1, make([]byte, 10)))
		receiver = append(receiver, recv(0, 1, nil))
	}
	times := run(t, w, map[int][]op{0: sender, 1: receiver})
	// Sender's time is 100 sends only, far below the receiver's 5s.
	if times[0] >= 1 {
		t.Fatalf("sender blocked: %v", times[0])
	}
}

// The matching tests make rank 0 the receiver: it runs first and parks
// on its first receive, so matching is exercised on wake as well as on
// messages already queued.

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var first, second []byte
	run(t, w, map[int][]op{
		0: {recv(1, 2, &second), recv(1, 1, &first)}, // tag 2 posted first
		1: {send(0, 1, []byte("one")), send(0, 2, []byte("two"))},
	})
	if string(first) != "one" || string(second) != "two" {
		t.Fatalf("got %q, %q", first, second)
	}
}

func TestFIFOWithinTag(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	got := make([][]byte, 3)
	run(t, w, map[int][]op{
		0: {recv(1, 1, &got[0]), recv(1, 1, &got[1]), recv(1, 1, &got[2])},
		1: {send(0, 1, []byte("a")), send(0, 1, []byte("b")), send(0, 1, []byte("c"))},
	})
	if string(got[0]) != "a" || string(got[1]) != "b" || string(got[2]) != "c" {
		t.Fatalf("order %q", got)
	}
}

func TestAnyTagMatchesFirst(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	run(t, w, map[int][]op{
		0: {recv(1, AnyTag, &got)},
		1: {send(0, 77, []byte("x"))},
	})
	if string(got) != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestComputeScalesWithCPUPower(t *testing.T) {
	spec := testSpec(2)
	spec.Nodes[1].CPUPower = 2
	w := NewWorld(spec, 1, 0)
	times := run(t, w, all(2, func(int) []op {
		return []op{do(func(r *Rank) { r.Compute(10, 0.1) })} // 1s of work at power 1
	}))
	if !close(float64(times[0]), 1.0) {
		t.Fatalf("power-1 node took %v", times[0])
	}
	if !close(float64(times[1]), 0.5) {
		t.Fatalf("power-2 node took %v, want 0.5", times[1])
	}
}

func TestSendToSelfPanics(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	defer func() {
		if p := recover(); p != "mpi: rank 0 panicked: mpi: Send to self" {
			t.Fatalf("recovered %v", p)
		}
	}()
	run(t, w, map[int][]op{0: {send(0, 1, nil)}})
}

// TestSendAndRecvOutsideRunPanic pins that messaging needs the driver:
// outside World.Run there is no scheduler to deliver or park.
func TestSendAndRecvOutsideRunPanic(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	for name, f := range map[string]func(){
		"Send":    func() { w.Rank(0).Send(1, 1, nil) },
		"TryRecv": func() { w.Rank(0).TryRecv(&RecvOp{Src: 1, Tag: 1}) },
	} {
		func() {
			defer func() {
				if p, _ := recover().(string); !strings.Contains(p, "outside World.Run") {
					t.Errorf("%s outside Run: recovered %q", name, p)
				}
			}()
			f()
		}()
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	buf := []byte{1, 2, 3}
	run(t, w, map[int][]op{
		0: {recv(1, 1, &got)},
		1: {
			send(0, 1, buf),
			do(func(*Rank) { buf[0] = 99 }), // must not affect the in-flight message
		},
	})
	if got[0] != 1 {
		t.Fatal("message aliased the sender's buffer")
	}
}

// TestSendBufferReuse pins Send's ownership contract: Send copies the
// payload, so a sender that overwrites its buffer for the next message
// does not change what the receiver gets. The subtests keep the names of
// the two engines the emulator once had, so their IDs stay stable; they
// now differ in when the receiver polls. Rank 0 is dispatched first at
// the tied start clock, so in "goroutine" the receiver (rank 0) parks
// before the sender runs and is woken by the first message, and in
// "event" both messages are already queued when the receiver polls.
func TestSendBufferReuse(t *testing.T) {
	cases := []struct {
		name     string
		receiver int
		parks    uint64
	}{
		{"goroutine", 0, 1},
		{"event", 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(testSpec(2), 1, 0)
			sender := 1 - tc.receiver
			got := make([][]byte, 0, 2)
			ro := RecvOp{Src: sender, Tag: 1}
			st, err := w.Run(func(r *Rank) bool {
				if r.Rank() == sender {
					buf := []byte{1, 2, 3}
					r.Send(tc.receiver, 1, buf)
					copy(buf, []byte{4, 5, 6})
					r.Send(tc.receiver, 1, buf)
					clear(buf)
					return true
				}
				for len(got) < 2 {
					data, ok := r.TryRecv(&ro)
					if !ok {
						return false
					}
					got = append(got, data)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Parks != tc.parks {
				t.Fatalf("receiver parked %d times, want %d", st.Parks, tc.parks)
			}
			if len(got) != 2 || string(got[0]) != "\x01\x02\x03" || string(got[1]) != "\x04\x05\x06" {
				t.Fatalf("delivered %v, want [[1 2 3] [4 5 6]]", got)
			}
		})
	}
}

func TestResetClocks(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	run(t, w, all(2, func(int) []op { return []op{do(func(r *Rank) { r.Compute(1, 1) })} }))
	w.ResetClocks()
	for _, tm := range run(t, w, nil) {
		if tm != 0 {
			t.Fatalf("clock not reset: %v", tm)
		}
	}
}

func TestWorldRunPropagatesPanic(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	defer func() {
		if p := recover(); p != "mpi: rank 1 panicked: boom" {
			t.Fatalf("recovered %v, want the rank-1 panic report", p)
		}
	}()
	run(t, w, map[int][]op{1: {do(func(*Rank) { panic("boom") })}})
}

// TestWorldRunReportsDeadlock has both ranks receive first: Run must
// return an error naming each parked rank, not hang.
func TestWorldRunReportsDeadlock(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	a, b := RecvOp{Src: 1, Tag: 3}, RecvOp{Src: 0, Tag: 4}
	_, err := w.Run(func(r *Rank) bool {
		op := &a
		if r.Rank() == 1 {
			op = &b
		}
		_, ok := r.TryRecv(op)
		return ok
	})
	if err == nil {
		t.Fatal("Run returned no error for a deadlocked world")
	}
	for _, want := range []string{"deadlock", "2 of 2 ranks unfinished", "rank 0 ← src 1 tag 3", "rank 1 ← src 0 tag 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q does not mention %q", err, want)
		}
	}
}

type countingProfiler struct {
	pre   map[CallKind]int
	post  map[CallKind]int
	waits vclock.Duration
}

func newCountingProfiler() *countingProfiler {
	return &countingProfiler{pre: map[CallKind]int{}, post: map[CallKind]int{}}
}

func (p *countingProfiler) Pre(ci *CallInfo) { p.pre[ci.Kind]++ }

func (p *countingProfiler) Post(ci *CallInfo) {
	p.post[ci.Kind]++
	p.waits += ci.Wait
}

// TestProfilerSeesCalls profiles rank 0, whose receive parks before
// rank 1 sends: the hooks still fire once per logical receive.
func TestProfilerSeesCalls(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	prof := newCountingProfiler()
	w.Rank(0).SetProfiler(prof)
	ro := RecvOp{Src: 1, Tag: 1}
	computed := false
	st, err := w.Run(func(r *Rank) bool {
		if r.Rank() == 1 {
			r.Compute(0.001, 1)
			r.Send(0, 1, make([]byte, 10))
			return true
		}
		if !computed {
			r.Compute(0.001, 1)
			computed = true
		}
		_, ok := r.TryRecv(&ro)
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Parks != 1 {
		t.Fatalf("receiver parked %d times, want 1", st.Parks)
	}
	if prof.pre[CallRecv] != 1 || prof.post[CallRecv] != 1 || prof.post[CallCompute] != 1 {
		t.Fatalf("profiler counts pre %v post %v", prof.pre, prof.post)
	}
	if prof.waits <= 0 {
		t.Fatal("blocked recv must report positive wait")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	runOnce := func() []vclock.Time {
		w := NewWorld(cluster.HY1(8), 42, 0.02)
		return run(t, w, all(8, func(p int) []op {
			prog := []op{do(func(r *Rank) {
				r.Compute(float64(p+1), 0.01)
				if p < 7 {
					r.Send(p+1, 1, make([]byte, 64))
				}
			})}
			if p > 0 {
				prog = append(prog, recv(p-1, 1, nil))
			}
			ar := &AllreduceSM{Tag: 9, Op: OpSum, Vals: []float64{1}}
			return append(prog, ar.Step)
		}))
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %v vs %v — emulation not deterministic", i, a[i], b[i])
		}
	}
}

func TestMemoryBytesExposed(t *testing.T) {
	spec := testSpec(2)
	spec.Nodes[1].MemoryBytes = 12345
	w := NewWorld(spec, 1, 0)
	if w.Rank(1).MemoryBytes() != 12345 {
		t.Fatal("MemoryBytes wrong")
	}
}

func TestCallKindString(t *testing.T) {
	if CallSend.String() != "Send" || CallPrefetchWait.String() != "PrefetchWait" {
		t.Fatal("CallKind strings wrong")
	}
	if CallKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestNetworkLinkOverride(t *testing.T) {
	// Sanity check that netsim integration honours per-link params.
	p := netsim.DefaultParams()
	nw := netsim.New(2, p, nil)
	slow := p
	slow.Latency = 1
	nw.SetLink(0, 1, slow)
	if nw.TransferTime(0, 1, 0) != 1 {
		t.Fatal("per-link override lost")
	}
}

func TestInterferenceInflatesCompute(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	w.Rank(1).SetInterference(0.5, 0.25)
	times := run(t, w, all(2, func(int) []op {
		return []op{do(func(r *Rank) {
			for i := 0; i < 100; i++ {
				r.Compute(1, 0.01) // 1s total at factor 1
			}
		})}
	}))
	if !close(float64(times[0]), 1.0) {
		t.Fatalf("idle rank took %v, want 1s", times[0])
	}
	// Loaded rank: factor averages ≈1.25 over the wave.
	if times[1] <= 1.05 || times[1] >= 1.5 {
		t.Fatalf("loaded rank took %v, want ≈1.25s", times[1])
	}
}

func TestInterferenceDeterministic(t *testing.T) {
	runOnce := func() vclock.Time {
		r := NewWorld(testSpec(1), 1, 0).Rank(0)
		r.SetInterference(0.3, 0.1)
		for i := 0; i < 50; i++ {
			r.Compute(1, 0.005)
		}
		return r.Now()
	}
	if runOnce() != runOnce() {
		t.Fatal("interference not deterministic")
	}
}

func TestFileOpsThroughRank(t *testing.T) {
	r := NewWorld(testSpec(2), 1, 0).Rank(0)
	r.Disk().Create("v", 256)
	r.FileWrite("v", 8, []byte{1, 2, 3})
	got := r.FileRead("v", 8, 3)
	tag := r.FilePrefetchIssue("v", 0, 64)
	data := r.FilePrefetchWait("v", tag)
	if r.Now() <= 0 {
		t.Error("file ops charged no time")
	}
	if string(got) != string([]byte{1, 2, 3}) || len(data) != 64 {
		t.Fatalf("file ops data wrong: %v %d", got, len(data))
	}
	if r.CPUPower() != 1 || r.Clock().Now() != r.Now() {
		t.Fatal("rank accessors wrong")
	}
}

func TestWorldSpec(t *testing.T) {
	w := NewWorld(testSpec(3), 1, 0)
	if w.Spec().N() != 3 || w.Size() != 3 || w.Rank(2).Size() != 3 {
		t.Fatal("Spec wrong")
	}
}

func TestCallInfoDuration(t *testing.T) {
	ci := CallInfo{Start: 1, End: 3.5}
	if ci.Duration() != 2.5 {
		t.Fatalf("Duration %v", ci.Duration())
	}
}
