package search

import (
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/obs"
)

// ModelEvaluator adapts a MHETA model to the Evaluator interface,
// minimising total predicted execution time: "A separate component of
// the runtime system uses MHETA to evaluate all candidate distributions
// as part of a search algorithm" (§1). Like the Model it wraps, it is
// single-goroutine; put it under a Memo to share it.
type ModelEvaluator struct {
	Model *core.Model
}

// EvaluateBatchFromInto implements Evaluator; the base is ignored (every
// candidate is a full evaluation).
func (m ModelEvaluator) EvaluateBatchFromInto(out []float64, _ dist.Distribution, ds []dist.Distribution) {
	for i, d := range ds {
		out[i] = m.Model.PredictTotal(d)
	}
}

// DeltaModelEvaluator adapts a model's incremental evaluator
// (core.DeltaEvaluator) to the Evaluator interface. Scores are
// bit-identical to ModelEvaluator — the delta cache affects only speed —
// so swapping it in changes no search outcome, only the candidates/second
// rate. Searchers name each batch's ancestor, which primes the cache rows
// the batch's candidates share with it, so a batch's first candidates
// find their terms already filled.
//
// Like the Model it wraps, a DeltaModelEvaluator is single-goroutine; a
// Memo over it serialises concurrent callers (mheta-serve's engines).
type DeltaModelEvaluator struct {
	de *core.DeltaEvaluator
	// lastBase is a private copy of the base most recently warmed,
	// deduplicating consecutive batches against the same ancestor with a
	// plain element compare (cheaper than hashing for the short
	// distributions searches use, and exact).
	lastBase dist.Distribution
	haveBase bool
	// Delta-path observability (nil when unobserved; see Observe).
	obsHit, obsFull *obs.Counter
}

// NewDeltaModelEvaluator builds a delta evaluator over model (using the
// model's lazily-created core.DeltaEvaluator).
func NewDeltaModelEvaluator(model *core.Model) *DeltaModelEvaluator {
	return &DeltaModelEvaluator{de: model.Delta()}
}

// Observe registers the delta-path counters on r: search.delta.hit counts
// candidates served by the cache-replay path, search.delta.full counts
// fall-backs to full evaluation. A nil registry disables them.
func (e *DeltaModelEvaluator) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
	e.obsHit = r.Counter("search.delta.hit")
	e.obsFull = r.Counter("search.delta.full")
}

// Model returns the underlying model.
func (e *DeltaModelEvaluator) Model() *core.Model { return e.de.Model() }

// Stats returns the underlying cache counters.
func (e *DeltaModelEvaluator) Stats() core.DeltaStats { return e.de.Stats() }

// Evaluate scores one candidate with no ancestry (the bench module's
// direct-call path).
func (e *DeltaModelEvaluator) Evaluate(d dist.Distribution) float64 {
	v, usedDelta := e.de.Evaluate(d)
	if usedDelta {
		e.obsHit.Inc()
	} else {
		e.obsFull.Inc()
	}
	return v
}

// EvaluateBatchFromInto implements Evaluator: the base primes the cache,
// then every candidate is scored
// exactly as a nil base would score it. The delta-path counters are
// accumulated locally and flushed once per batch rather than per
// candidate.
func (e *DeltaModelEvaluator) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	if len(out) != len(ds) {
		panic("search: batch output length mismatch")
	}
	e.warm(base)
	hit, full := 0, 0
	for i, d := range ds {
		v, usedDelta := e.de.Evaluate(d)
		if usedDelta {
			hit++
		} else {
			full++
		}
		out[i] = v
	}
	if hit > 0 {
		e.obsHit.Add(int64(hit))
	}
	if full > 0 {
		e.obsFull.Add(int64(full))
	}
}

// warm primes the cache rows for base's widths, at most once per distinct
// consecutive base.
func (e *DeltaModelEvaluator) warm(base dist.Distribution) {
	if base == nil {
		return
	}
	if e.haveBase && base.Equal(e.lastBase) {
		return
	}
	e.lastBase = append(e.lastBase[:0], base...)
	e.haveBase = true
	e.de.Warm(base)
}
