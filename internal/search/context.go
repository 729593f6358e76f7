package search

import (
	"context"

	"mheta/internal/dist"
)

// The searchers are deterministic batch loops with no natural place to
// return an error from — and threading one through every algorithm would
// contaminate the bit-identical result contract with cancellation
// plumbing. Cancellation therefore rides the evaluation path instead:
// WithContext wraps the evaluator every candidate flows through, and once
// the context is done the next evaluation unwinds the searcher with a
// private panic that SearchContext converts back into the context's
// error. The wrapper is transparent until cancellation — same values,
// same evaluation counts, same batches — so a search that finishes before
// its deadline is bit-identical to an uncancellable one.

// canceled is the private panic sentinel carrying the context error.
type canceled struct{ err error }

// ctxEvaluator checks the context once per batch (cheap against a model
// evaluation) and forwards to the inner evaluator.
type ctxEvaluator struct {
	ctx context.Context
	ev  Evaluator
}

// WithContext wraps ev so every evaluation first checks ctx; after ctx is
// done the wrapper panics with a sentinel only SearchContext recovers.
// Use SearchContext rather than calling a searcher with the wrapped
// evaluator directly.
func WithContext(ctx context.Context, ev Evaluator) Evaluator {
	return &ctxEvaluator{ctx: ctx, ev: ev}
}

// EvaluateBatchFromInto implements Evaluator, panicking with the
// cancellation sentinel once the context is done.
func (c *ctxEvaluator) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	if err := c.ctx.Err(); err != nil {
		panic(canceled{err})
	}
	c.ev.EvaluateBatchFromInto(out, base, ds)
}

// SearchContext runs s over ev honoring ctx: the search aborts at the
// next evaluation batch after ctx is done and the context's error is
// returned. A nil ctx (or one that never fires) leaves the search — Best,
// Time, Evaluations — bit-identical to s.Search(ev, total).
//
// Unwinding mid-search is safe by construction: the searcher-side state
// is per-call (arenas, lightMemo tables) and simply abandoned, and the
// shared Memo's pending protocol is panic-safe (waiters retry, the table
// is never poisoned). The panic crosses no goroutine boundary: searches
// score every candidate on the searcher's goroutine.
func SearchContext(ctx context.Context, s Searcher, ev Evaluator, total int) (res Result, err error) {
	if ctx == nil {
		return s.Search(ev, total), nil
	}
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(canceled)
			if !ok {
				panic(r)
			}
			res, err = Result{Algorithm: s.Name()}, c.err
		}
	}()
	return s.Search(WithContext(ctx, ev), total), nil
}
