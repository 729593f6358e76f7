package mpi

import (
	"math"
	"testing"
)

func TestReduceSumToRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		w := NewWorld(testSpec(n), 1, 0)
		sms := make([]ReduceSM, n)
		run(t, w, all(n, func(p int) []op {
			sms[p] = ReduceSM{Root: 0, Tag: 3, Op: OpSum, Vals: []float64{float64(p + 1), 1}}
			return []op{sms[p].Step}
		}))
		want := float64(n*(n+1)) / 2
		if got := sms[0].Result(); got[0] != want || got[1] != float64(n) {
			t.Fatalf("n=%d: root got %v, want [%v %v]", n, got, want, n)
		}
		for p := 1; p < n; p++ {
			if got := sms[p].Result(); got != nil {
				t.Fatalf("n=%d: non-root rank %d got %v", n, p, got)
			}
		}
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	const n = 6
	w := NewWorld(testSpec(n), 1, 0)
	sms := make([]ReduceSM, n)
	run(t, w, all(n, func(p int) []op {
		sms[p] = ReduceSM{Root: 3, Tag: 4, Op: OpSum, Vals: []float64{1}}
		return []op{sms[p].Step}
	}))
	if got := sms[3].Result(); got == nil || got[0] != n {
		t.Fatalf("root 3 got %v", got)
	}
	if got := sms[0].Result(); got != nil {
		t.Fatalf("rank 0 is not the root but got %v", got)
	}
}

func TestReduceOps(t *testing.T) {
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	maxs, mins := make([]ReduceSM, n), make([]ReduceSM, n)
	run(t, w, all(n, func(p int) []op {
		v := []float64{float64(p)}
		maxs[p] = ReduceSM{Root: 0, Tag: 1, Op: OpMax, Vals: v}
		mins[p] = ReduceSM{Root: 0, Tag: 2, Op: OpMin, Vals: v}
		return []op{maxs[p].Step, mins[p].Step}
	}))
	if maxs[0].Result()[0] != 3 || mins[0].Result()[0] != 0 {
		t.Fatalf("max %v min %v", maxs[0].Result(), mins[0].Result())
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		w := NewWorld(testSpec(n), 1, 0)
		sms := make([]BcastSM, n)
		run(t, w, all(n, func(p int) []op {
			vals := make([]float64, 2)
			if p == 0 {
				vals = []float64{3.25, -1}
			}
			sms[p] = BcastSM{Root: 0, Tag: 5, Vals: vals}
			return []op{sms[p].Step}
		}))
		for p := 0; p < n; p++ {
			if got := sms[p].Result(); got[0] != 3.25 || got[1] != -1 {
				t.Fatalf("n=%d rank %d got %v", n, p, got)
			}
		}
	}
}

func TestAllreduceEveryoneGetsSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 8} {
		w := NewWorld(testSpec(n), 1, 0)
		sms := make([]AllreduceSM, n)
		run(t, w, all(n, func(p int) []op {
			sms[p] = AllreduceSM{Tag: 7, Op: OpSum, Vals: []float64{float64(p + 1)}}
			return []op{sms[p].Step}
		}))
		want := float64(n*(n+1)) / 2
		for p := 0; p < n; p++ {
			if got := sms[p].Result()[0]; got != want {
				t.Fatalf("n=%d rank %d got %v, want %v", n, p, got, want)
			}
		}
	}
}

func TestAllreduceGatherPattern(t *testing.T) {
	// Zero-padded sum reduction assembles a distributed vector — the
	// pattern CG and Lanczos use for their p/v gathers.
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	sms := make([]AllreduceSM, n)
	run(t, w, all(n, func(p int) []op {
		vals := make([]float64, n)
		vals[p] = float64(10 + p)
		sms[p] = AllreduceSM{Tag: 8, Op: OpSum, Vals: vals}
		return []op{sms[p].Step}
	}))
	for p := 0; p < n; p++ {
		for i, v := range sms[p].Result() {
			if v != float64(10+i) {
				t.Fatalf("rank %d slot %d = %v", p, i, v)
			}
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	times := run(t, w, all(n, func(p int) []op {
		return []op{
			// Rank 2 is far ahead; everyone must wait for it.
			do(func(r *Rank) {
				if p == 2 {
					r.Compute(100, 0.01) // 1s
				}
			}),
			(&BarrierSM{Tag: 1}).Step,
		}
	}))
	for p := 0; p < n; p++ {
		if float64(times[p]) < 1.0 {
			t.Fatalf("rank %d finished barrier at %v, before the straggler", p, times[p])
		}
	}
}

func TestBarrierMakesLaterRecvTimingsExact(t *testing.T) {
	// After a barrier, rank clocks differ only by tree overheads (µs),
	// so this documents the collectives' skew is bounded.
	const n = 8
	w := NewWorld(testSpec(n), 1, 0)
	times := run(t, w, all(n, func(p int) []op {
		return []op{do(func(r *Rank) { r.Compute(float64(p), 0.001) }), (&BarrierSM{Tag: 1}).Step}
	}))
	max, min := float64(times[0]), float64(times[0])
	for _, tm := range times {
		if float64(tm) > max {
			max = float64(tm)
		}
		if float64(tm) < min {
			min = float64(tm)
		}
	}
	if max-min > 0.01 {
		t.Fatalf("post-barrier skew %v too large", max-min)
	}
}

func TestReduceNaNSafety(t *testing.T) {
	// Collectives must pass values through unchanged, including specials.
	const n = 2
	w := NewWorld(testSpec(n), 1, 0)
	sms := make([]ReduceSM, n)
	run(t, w, all(n, func(p int) []op {
		v := math.Inf(1)
		if p == 1 {
			v = 1
		}
		sms[p] = ReduceSM{Root: 0, Tag: 1, Op: OpMax, Vals: []float64{v}}
		return []op{sms[p].Step}
	}))
	if got := sms[0].Result(); !math.IsInf(got[0], 1) {
		t.Fatalf("got %v", got)
	}
}

func TestEncodeDecodeF64s(t *testing.T) {
	in := []float64{0, -1.5, math.Pi, math.MaxFloat64}
	var r Rank
	buf := make([]float64, 8)
	out := decodeF64sInto(buf, r.encode(in))
	if len(out) != len(in) || &out[0] != &buf[0] {
		t.Fatalf("decode into a large enough buffer: len %d, reused %v", len(out), &out[0] == &buf[0])
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}
