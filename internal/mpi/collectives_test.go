package mpi

import (
	"math"
	"testing"
)

func TestReduceSumToRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		w := NewWorld(testSpec(n), 1, 0)
		results := make([][]float64, n)
		w.Run(func(r *Rank) {
			vals := []float64{float64(r.Rank() + 1), 1}
			results[r.Rank()] = r.Reduce(0, 3, OpSum, vals)
		})
		want := float64(n*(n+1)) / 2
		if results[0][0] != want || results[0][1] != float64(n) {
			t.Fatalf("n=%d: root got %v, want [%v %v]", n, results[0], want, n)
		}
		for p := 1; p < n; p++ {
			if results[p] != nil {
				t.Fatalf("n=%d: non-root rank %d got %v", n, p, results[p])
			}
		}
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	const n = 6
	w := NewWorld(testSpec(n), 1, 0)
	results := make([][]float64, n)
	w.Run(func(r *Rank) {
		results[r.Rank()] = r.Reduce(3, 4, OpSum, []float64{1})
	})
	if results[3] == nil || results[3][0] != n {
		t.Fatalf("root 3 got %v", results[3])
	}
}

func TestReduceOps(t *testing.T) {
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	var maxRes, minRes []float64
	w.Run(func(r *Rank) {
		v := float64(r.Rank())
		m1 := r.Reduce(0, 1, OpMax, []float64{v})
		m2 := r.Reduce(0, 2, OpMin, []float64{v})
		if r.Rank() == 0 {
			maxRes, minRes = m1, m2
		}
	})
	if maxRes[0] != 3 || minRes[0] != 0 {
		t.Fatalf("max %v min %v", maxRes, minRes)
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		w := NewWorld(testSpec(n), 1, 0)
		results := make([][]float64, n)
		w.Run(func(r *Rank) {
			var vals []float64
			if r.Rank() == 0 {
				vals = []float64{3.25, -1}
			} else {
				vals = make([]float64, 2)
			}
			results[r.Rank()] = r.Bcast(0, 5, vals)
		})
		for p := 0; p < n; p++ {
			if results[p][0] != 3.25 || results[p][1] != -1 {
				t.Fatalf("n=%d rank %d got %v", n, p, results[p])
			}
		}
	}
}

func TestAllreduceEveryoneGetsSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 8} {
		w := NewWorld(testSpec(n), 1, 0)
		results := make([][]float64, n)
		w.Run(func(r *Rank) {
			results[r.Rank()] = r.Allreduce(7, OpSum, []float64{float64(r.Rank() + 1)})
		})
		want := float64(n*(n+1)) / 2
		for p := 0; p < n; p++ {
			if results[p][0] != want {
				t.Fatalf("n=%d rank %d got %v, want %v", n, p, results[p][0], want)
			}
		}
	}
}

func TestAllreduceGatherPattern(t *testing.T) {
	// Zero-padded sum reduction assembles a distributed vector — the
	// pattern CG and Lanczos use for their p/v gathers.
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	results := make([][]float64, n)
	w.Run(func(r *Rank) {
		vals := make([]float64, n)
		vals[r.Rank()] = float64(10 + r.Rank())
		results[r.Rank()] = r.Allreduce(8, OpSum, vals)
	})
	for p := 0; p < n; p++ {
		for i := 0; i < n; i++ {
			if results[p][i] != float64(10+i) {
				t.Fatalf("rank %d slot %d = %v", p, i, results[p][i])
			}
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	times := w.Run(func(r *Rank) {
		// Rank 2 is far ahead; everyone must wait for it.
		if r.Rank() == 2 {
			r.Compute(100, 0.01) // 1s
		}
		r.Barrier(1)
	})
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
	times := w.Run(func(r *Rank) {
		r.Compute(float64(r.Rank()), 0.001)
		r.Barrier(1)
	})
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

func TestBcastBytes(t *testing.T) {
	const n = 5
	w := NewWorld(testSpec(n), 1, 0)
	results := make([][]byte, n)
	w.Run(func(r *Rank) {
		var data []byte
		if r.Rank() == 0 {
			data = []byte("broadcast me")
		}
		results[r.Rank()] = r.BcastBytes(0, 6, data)
	})
	for p := 0; p < n; p++ {
		if string(results[p]) != "broadcast me" {
			t.Fatalf("rank %d got %q", p, results[p])
		}
	}
}

func TestReduceNaNSafety(t *testing.T) {
	// Collectives must pass values through unchanged, including specials.
	const n = 2
	w := NewWorld(testSpec(n), 1, 0)
	var got []float64
	w.Run(func(r *Rank) {
		v := math.Inf(1)
		if r.Rank() == 1 {
			v = 1
		}
		res := r.Reduce(0, 1, OpMax, []float64{v})
		if r.Rank() == 0 {
			got = res
		}
	})
	if !math.IsInf(got[0], 1) {
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
