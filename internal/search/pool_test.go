package search

import (
	"sync"
	"sync/atomic"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/obs"
	"mheta/internal/program"
)

// specEvaluator is a cheap pure surrogate for the MHETA model that still
// depends on every Table 1 axis: per-node time is work over CPU power,
// plus a disk-scaled penalty for the share that spills out of core. Being
// a pure function it is safe to share across pool workers.
func specEvaluator(spec cluster.Spec, bpe int64) EvaluatorFunc {
	return EvaluatorFunc(func(d dist.Distribution) float64 {
		worst := 0.0
		for i, b := range d {
			n := spec.Nodes[i]
			t := float64(b) / n.CPUPower
			if over := int64(b)*bpe - n.MemoryBytes; over > 0 {
				t += float64(over) * 1e-6 * n.DiskScale
			}
			if t > worst {
				worst = t
			}
		}
		return worst + 1e-9
	})
}

// TestParallelSerialEquivalence is the determinism contract: for every
// searcher and every Table 1 architecture, a plain serial evaluator, a
// 1-worker pool and an 8-worker pool must return identical Best, Time and
// Evaluations on a fixed seed.
func TestParallelSerialEquivalence(t *testing.T) {
	const total = 1200
	for _, spec := range []cluster.Spec{cluster.DC(8), cluster.IO(8), cluster.HY1(8), cluster.HY2(8)} {
		ev := specEvaluator(spec, 4096)
		searchers := []Searcher{
			&GBS{Spec: spec, BytesPerElem: 4096},
			&Genetic{N: spec.N(), Seed: 11},
			&Annealing{N: spec.N(), Seed: 11, Fan: 4},
			&Random{N: spec.N(), Seed: 11},
		}
		for _, s := range searchers {
			serial := s.Search(ev, total)
			for _, workers := range []int{1, 8} {
				got := s.Search(NewPool(ev, workers, nil), total)
				if !got.Best.Equal(serial.Best) || got.Time != serial.Time || got.Evaluations != serial.Evaluations {
					t.Errorf("%s on %s: Pool(%d) = (%v, %v, %d evals), serial = (%v, %v, %d evals)",
						s.Name(), spec.Name, workers,
						got.Best, got.Time, got.Evaluations,
						serial.Best, serial.Time, serial.Evaluations)
				}
			}
		}
	}
}

// poolTestParams is a small but real 8-node parameter set so the pool can
// exercise per-worker core.Model clones (including under -race).
func poolTestParams(n int) core.Params {
	repeat := func(v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v * float64(i+1)
		}
		return out
	}
	mem := make([]int64, n)
	disk := make([]core.DiskCal, n)
	base := make([]int, n)
	for i := 0; i < n; i++ {
		mem[i] = int64(4000 * (i + 1))
		disk[i] = core.DiskCal{ReadSeek: 0.01, WriteSeek: 0.02, IssueCost: 0.001}
		base[i] = 10
	}
	return core.Params{
		Program:     "pool-test",
		Nodes:       n,
		Iterations:  3,
		MemoryBytes: mem,
		Disk:        disk,
		Net: core.NetParams{
			SendFixed: 0.001, RecvFixed: 0.002, WireFixed: 0.005,
		},
		BaseDist: base,
		DistVars: []core.DistVar{{Name: "V", ElemBytes: 100}},
		Sections: []core.SectionParams{{
			Name:  "s0",
			Tiles: 2,
			Comm:  program.CommNone,
			Stages: []core.StageParams{{
				Name:           "st",
				ComputePerElem: repeat(0.01),
				StreamVar:      "V",
				ElemBytes:      100,
				ReadPerByte:    repeat(1e-5),
				WritePerByte:   repeat(2e-5),
			}},
		}},
	}
}

// TestPoolClonesModelEvaluator checks the production configuration: a
// pool over ModelEvaluator, given its CloneEvaluator method as the clone
// function, clones one Model per extra worker and matches the serial
// search bit for bit.
func TestPoolClonesModelEvaluator(t *testing.T) {
	model := core.MustModel(poolTestParams(8))
	ev := ModelEvaluator{Model: model}
	clones := 0
	pool := NewPool(ev, 4, func() Evaluator {
		clones++
		return ev.CloneEvaluator()
	})
	if pool.Workers() != 4 {
		t.Fatalf("workers %d, want 4", pool.Workers())
	}
	if clones != 3 {
		t.Fatalf("%d clones for 4 workers, want 3 (worker 0 uses the source)", clones)
	}
	for _, s := range []Searcher{
		&GBS{Spec: cluster.HY1(8), BytesPerElem: 100},
		&Genetic{N: 8, Seed: 5},
		&Annealing{N: 8, Seed: 5, Fan: 3},
	} {
		serial := s.Search(ev, 400)
		parallel := s.Search(pool, 400)
		if !serial.Best.Equal(parallel.Best) || serial.Time != parallel.Time || serial.Evaluations != parallel.Evaluations {
			t.Errorf("%s: parallel (%v, %v, %d) != serial (%v, %v, %d)",
				s.Name(), parallel.Best, parallel.Time, parallel.Evaluations,
				serial.Best, serial.Time, serial.Evaluations)
		}
	}
}

func TestPoolEvaluateBatchOrder(t *testing.T) {
	ev := EvaluatorFunc(func(d dist.Distribution) float64 { return float64(d[0]) })
	pool := NewPool(ev, 3, nil)
	ds := make([]dist.Distribution, 10)
	for i := range ds {
		ds[i] = dist.Distribution{i}
	}
	out := make([]float64, len(ds))
	pool.EvaluateBatchFromInto(out, nil, ds)
	for i, v := range out {
		if v != float64(i) {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}

func TestMemoDedup(t *testing.T) {
	var calls atomic.Int64
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 {
		calls.Add(1)
		return float64(d.Total())
	}))
	d1 := dist.Distribution{3, 5}
	d2 := dist.Distribution{4, 4}
	batch := []dist.Distribution{d1, d2, d1.Clone()} // in-batch duplicate
	out := make([]float64, len(batch))
	m.EvaluateBatchInto(out, batch)
	if out[0] != 8 || out[1] != 8 || out[2] != 8 {
		t.Fatalf("out %v", out)
	}
	if calls.Load() != 2 || m.Evaluations() != 2 {
		t.Fatalf("calls %d, evaluations %d, want 2", calls.Load(), m.Evaluations())
	}
	m.EvaluateBatchInto(out, batch) // fully memoised
	if got := evalOne(m, d2); got != 8 {
		t.Fatalf("single hit %v", got)
	}
	if calls.Load() != 2 || m.Evaluations() != 2 || m.Len() != 2 {
		t.Fatalf("after hits: calls %d, evaluations %d, len %d", calls.Load(), m.Evaluations(), m.Len())
	}
	if got := evalOne(m, dist.Distribution{8, 0}); got != 8 || m.Evaluations() != 3 {
		t.Fatalf("single miss %v, evaluations %d", got, m.Evaluations())
	}
}

// TestMemoisedBatchZeroAlloc pins the acceptance criterion: once a batch
// is memoised, re-evaluating it performs zero allocations.
func TestMemoisedBatchZeroAlloc(t *testing.T) {
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 { return float64(d.Total()) }))
	ds := []dist.Distribution{{1, 2, 3}, {2, 2, 2}, {0, 3, 3}, {6, 0, 0}}
	out := make([]float64, len(ds))
	m.EvaluateBatchInto(out, ds) // warm
	allocs := testing.AllocsPerRun(200, func() {
		m.EvaluateBatchInto(out, ds)
	})
	if allocs != 0 {
		t.Fatalf("memoised batch allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		m.EvaluateBatchInto(out[:1], ds[:1]) // a batch of one
	})
	if allocs != 0 {
		t.Fatalf("memoised batch of one allocates %v/op, want 0", allocs)
	}
}

func TestAnnealingFanOneMatchesClassicChain(t *testing.T) {
	// Fan 1 must reproduce the original single-neighbour chain; this pins
	// the default behaviour so existing seeds keep their results.
	ev := loadImbalanceEvaluator(hy1Speeds())
	a1 := (&Annealing{N: 8, Seed: 7}).Search(ev, searchTotal)
	a2 := (&Annealing{N: 8, Seed: 7, Fan: 1}).Search(ev, searchTotal)
	if !a1.Best.Equal(a2.Best) || a1.Time != a2.Time || a1.Evaluations != a2.Evaluations {
		t.Fatalf("Fan default vs Fan 1 differ: %+v vs %+v", a1, a2)
	}
}

// TestPoolIntrospectionConcurrentWithBatches pins (under -race) that the
// pool's introspection and instrumentation entry points — Workers and
// Observe, which read and write the worker set the //mheta:guardedby
// annotation binds to mu — are safe to call while batches are in flight.
// Before the guarded analyzer annotations they read p.evs without the
// lock; this test makes that regression a -race failure, not tribal
// memory.
func TestPoolIntrospectionConcurrentWithBatches(t *testing.T) {
	ev := EvaluatorFunc(func(d dist.Distribution) float64 { return float64(d[0]) })
	pool := NewPool(ev, 4, nil)
	ds := make([]dist.Distribution, 64)
	for i := range ds {
		ds[i] = dist.Distribution{i}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(ds))
			for i := 0; i < 20; i++ {
				pool.EvaluateBatchFromInto(out, nil, ds)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if w := pool.Workers(); w != 4 {
				t.Errorf("Workers() = %d, want 4", w)
				return
			}
			pool.Observe(obs.New())
		}
	}()
	wg.Wait()
}
