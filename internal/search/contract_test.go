package search

import (
	"context"
	"math"
	"testing"

	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/program"
)

// testParams is a small but real n-node parameter set, so evaluator tests
// run the actual model (including under -race).
func testParams(n int) core.Params {
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
		Program:     "search-test",
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

// contractParams is testParams reshaped to the paper's two-section
// [nearest-neighbour, all-reduce] program, so the delta evaluator takes
// its fused eight-rank kernel on all-active candidates and the generic
// chain on candidates with an idle rank.
func contractParams() core.Params {
	p := testParams(8)
	st := p.Sections[0].Stages
	p.Sections = []core.SectionParams{
		{Name: "nn", Tiles: 1, Comm: program.CommNearestNeighbor, MsgBytes: 512, Stages: st},
		{Name: "red", Tiles: 1, Comm: program.CommReduction, ReduceBytes: 64, Stages: st},
	}
	return p
}

// TestEvaluatorContract pins the one evaluation contract for every
// in-tree implementation: out[i] is Float64bits-identical to a fresh
// model's full prediction whether the batch names no ancestor or an
// ancestor, whether it arrives whole or as batches of one, and with
// in-batch duplicates.
func TestEvaluatorContract(t *testing.T) {
	base := dist.Distribution{50, 50, 50, 50, 50, 50, 50, 50}
	var ds []dist.Distribution
	for v := -6; v <= 5; v++ {
		// Move work onto or off rank 7, the bottleneck, so every
		// candidate has its own makespan and a misplaced result reads a
		// wrong value.
		if v == 0 {
			continue
		}
		d := base.Clone()
		d[(v+7)%7] += v
		d[7] -= v
		ds = append(ds, d)
	}
	ds = append(ds, dist.Distribution{100, 0, 50, 50, 50, 50, 50, 50}) // an idle rank
	distinct := len(ds)
	ds = append(ds, ds[3].Clone(), ds[9].Clone(), ds[3].Clone()) // in-batch duplicates

	ref := core.MustModel(contractParams())
	want := make([]float64, len(ds))
	seen := make(map[float64]bool)
	for i, d := range ds {
		want[i] = ref.PredictTotal(d)
		if i < distinct && seen[want[i]] {
			t.Fatalf("candidate %d scores %v like an earlier one; the set cannot catch a misplaced result", i, want[i])
		}
		seen[want[i]] = true
	}

	delta := func() *DeltaModelEvaluator { return NewDeltaModelEvaluator(core.MustModel(contractParams())) }
	probe := delta()
	probe.EvaluateBatchFromInto(make([]float64, len(ds)), base, ds)
	if st := probe.Stats(); st.Hits+st.Misses == 0 || st.FullEvals == 0 {
		t.Fatalf("candidates must exercise both the delta and the full path: %+v", st)
	}
	impls := []struct {
		name string
		mk   func() Evaluator
	}{
		{"EvaluatorFunc", func() Evaluator {
			m := core.MustModel(contractParams())
			return EvaluatorFunc(func(d dist.Distribution) float64 { return m.PredictTotal(d) })
		}},
		{"ModelEvaluator", func() Evaluator { return ModelEvaluator{Model: core.MustModel(contractParams())} }},
		{"DeltaModelEvaluator", func() Evaluator { return delta() }},
		{"Memo", func() Evaluator { return NewMemo(delta()) }},
		{"lightMemo", func() Evaluator { return newLightMemo(delta()) }},
		{"counter", func() Evaluator { return &counter{ev: delta()} }},
		{"WithContext", func() Evaluator { return WithContext(context.Background(), delta()) }},
	}
	modes := []struct {
		name string
		base dist.Distribution
		one  bool // batches of one instead of one whole batch
	}{
		{"nil-base/whole", nil, false},
		{"ancestor/whole", base, false},
		{"nil-base/one", nil, true},
		{"ancestor/one", base, true},
	}
	for _, impl := range impls {
		for _, mode := range modes {
			ev := impl.mk()
			out := make([]float64, len(ds))
			if mode.one {
				for i := range ds {
					ev.EvaluateBatchFromInto(out[i:i+1], mode.base, ds[i:i+1])
				}
			} else {
				ev.EvaluateBatchFromInto(out, mode.base, ds)
			}
			for i := range ds {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s %s: out[%d] = %v for %v, want %v", impl.name, mode.name, i, out[i], ds[i], want[i])
				}
			}
		}
	}
}
