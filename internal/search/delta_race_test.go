package search

import (
	"sync"
	"testing"

	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/obs"
)

// TestDeltaConcurrentSharedMemo exercises the race surface of
// mheta-serve's evaluator stack: one shared *Memo in front of one
// DeltaModelEvaluator (single-goroutine replay columns over its model),
// hammered by several goroutines submitting overlapping batches. Under
// -race this proves the memo's evalMu is the only thing standing between
// the callers and the delta evaluator, and the scores every goroutine
// observes must be bit-identical to a serial full evaluation.
func TestDeltaConcurrentSharedMemo(t *testing.T) {
	model := core.MustModel(testParams(8))
	dme := NewDeltaModelEvaluator(model)
	dme.Observe(obs.New())
	memo := NewMemo(dme)

	// Overlapping candidate set: block-ish distributions of 400 elements
	// over 8 nodes with deterministic perturbations, plus repeats so the
	// memo's pending protocol sees same-key contention.
	var cands []dist.Distribution
	for v := 0; v < 40; v++ {
		d := dist.Distribution{50, 50, 50, 50, 50, 50, 50, 50}
		d[v%8] += v % 17
		d[(v+3)%8] -= v % 17
		cands = append(cands, d)
	}
	cands = append(cands, cands[0].Clone(), cands[7].Clone(), cands[13].Clone())
	base := dist.Distribution{50, 50, 50, 50, 50, 50, 50, 50}

	// Serial reference on an independent model: the ground truth every
	// concurrent configuration must reproduce bit for bit.
	ref := ModelEvaluator{Model: core.MustModel(testParams(8))}
	want := make([]float64, len(cands))
	for i, d := range cands {
		want[i] = ref.Model.PredictTotal(d)
	}

	const goroutines = 6
	results := make([][]float64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			out := make([]float64, len(cands))
			// Each goroutine walks the same candidates but with its own
			// batch boundaries, so batches overlap mid-flight.
			stride := 3 + g
			for lo := 0; lo < len(cands); lo += stride {
				hi := min(lo+stride, len(cands))
				memo.EvaluateBatchFromInto(out[lo:hi], base, cands[lo:hi])
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	for g, out := range results {
		for i, v := range out {
			if v != want[i] {
				t.Fatalf("goroutine %d, candidate %d: got %v, want %v (delta/memo path diverged from full evaluation)", g, i, v, want[i])
			}
		}
	}
	// The appended clones, any colliding perturbations and all the
	// cross-goroutine overlap must dedup: distinct keys only.
	distinct := make(map[uint64]bool)
	for _, d := range cands {
		distinct[d.Hash()] = true
	}
	if got := memo.Evaluations(); got != len(distinct) {
		t.Fatalf("memo evaluations %d, want %d distinct candidates", got, len(distinct))
	}
}
