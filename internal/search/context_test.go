package search

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/dist"
)

// slopeEvaluator is a cheap deterministic scoring function over
// distributions (imbalance against a fixed optimum), so searches make
// real progress without a model.
func slopeEvaluator() EvaluatorFunc {
	return EvaluatorFunc(func(d dist.Distribution) float64 {
		t := 1.0
		for i, b := range d {
			w := float64(i + 1)
			t += float64(b) / w
		}
		return t
	})
}

// searchers lists one of each algorithm, sized for a 4-node spectrum.
func ctxSearchers() []Searcher {
	spec := cluster.HY1(4)
	return []Searcher{
		&GBS{Spec: spec, BytesPerElem: 8},
		&Genetic{N: 4, Seed: 7},
		&Annealing{N: 4, Seed: 7},
		&Random{N: 4, Seed: 7},
	}
}

// TestSearchContextTransparent pins the determinism half of the contract:
// a context that never fires leaves every algorithm's Result bit-identical
// to the uncancellable call.
func TestSearchContextTransparent(t *testing.T) {
	const total = 4096
	for _, s := range ctxSearchers() {
		plain := s.Search(slopeEvaluator(), total)
		got, err := SearchContext(context.Background(), s, slopeEvaluator(), total)
		if err != nil {
			t.Fatalf("%s: unexpected error %v", s.Name(), err)
		}
		if got.Time != plain.Time || got.Evaluations != plain.Evaluations || !got.Best.Equal(plain.Best) {
			t.Errorf("%s: with-context result %+v differs from plain %+v", s.Name(), got, plain)
		}
	}
}

// TestSearchContextCancelMidSearch cancels deterministically from inside
// the evaluation stream — the evaluator itself pulls the trigger after a
// fixed number of candidates — and demands every algorithm unwind with
// context.Canceled instead of completing.
func TestSearchContextCancelMidSearch(t *testing.T) {
	const total = 4096
	for _, s := range ctxSearchers() {
		// Every algorithm spends at least 16 evaluations on this spectrum
		// (GBS, the most frugal, spends exactly 16); cancelling at the 8th
		// guarantees a mid-search abort for all of them.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var n atomic.Int64
		inner := slopeEvaluator()
		ev := EvaluatorFunc(func(d dist.Distribution) float64 {
			if n.Add(1) == 8 {
				cancel()
			}
			return inner(d)
		})
		_, err := SearchContext(ctx, s, ev, total)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v after mid-search cancel, want context.Canceled", s.Name(), err)
		}
	}
}

// TestSearchContextDeadlineAlreadyExpired covers the deadline shape: a
// context already past its deadline aborts on the very first batch with
// DeadlineExceeded, spending no model evaluations.
func TestSearchContextDeadlineAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done() // the zero timeout has fired before the search starts
	for _, s := range ctxSearchers() {
		var n atomic.Int64
		ev := EvaluatorFunc(func(d dist.Distribution) float64 {
			n.Add(1)
			return 1
		})
		_, err := SearchContext(ctx, s, ev, 4096)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", s.Name(), err)
		}
		if n.Load() != 0 {
			t.Errorf("%s: %d evaluations spent under an expired deadline, want 0", s.Name(), n.Load())
		}
	}
}

// TestSearchContextNilIsPlain asserts the nil-context fast path returns
// the plain result with no wrapper in the way.
func TestSearchContextNilIsPlain(t *testing.T) {
	s := &Random{N: 4, Seed: 3}
	plain := s.Search(slopeEvaluator(), 1024)
	got, err := SearchContext(nil, s, slopeEvaluator(), 1024)
	if err != nil || got.Time != plain.Time || got.Evaluations != plain.Evaluations {
		t.Fatalf("nil-context result %+v err=%v, want %+v", got, err, plain)
	}
}
