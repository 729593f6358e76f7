// Package search implements the data-distribution selection algorithms
// that use MHETA as their evaluation function. The paper's companion
// report [26] evaluates four: generalized binary search (GBS), genetic,
// simulated annealing, and random (§5.3: "MHETA is used as part of four
// different algorithms ... to determine an effective distribution").
//
// [26] is not publicly archived, so the algorithms here are faithful
// reconstructions from the papers' descriptions: every algorithm explores
// the space of GEN_BLOCK distributions (non-negative blocks summing to
// the element count) and minimises the model-predicted execution time.
// GBS exploits the same structure as Figure 8 — the practically good
// distributions lie along the Blk↔I-C↔I-C/Bal↔Bal spectrum, and predicted
// time is close to unimodal along each leg — hence binary search over the
// legs; the stochastic algorithms roam the full space.
package search

import (
	"fmt"

	"mheta/internal/dist"
	"mheta/internal/vclock"
)

// Evaluator is the one evaluation contract every searcher, wrapper and
// model adapter speaks: it scores ds[i] into out[i] (lower is better).
// len(out) must equal len(ds), and implementations must not retain base
// or ds past the call.
//
// Every ds[i] derives from base — a mutation's parent, a GBS leg's best
// anchor — and a nil base means no ancestry, a full evaluation. The base
// is a warm-up hint only: out[i] must be exactly the value a nil base
// would produce, bit for bit; a base-aware evaluator merely reaches it
// faster by reusing work shared with the base (see core.DeltaEvaluator).
// A single candidate is a batch of one, passed as one-element subslices
// of the caller's buffers (out[i:i+1], ds[i:i+1]), so it costs no
// allocation.
type Evaluator interface {
	EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution)
}

// EvaluatorFunc adapts a scoring function to the Evaluator interface; the
// base is ignored.
type EvaluatorFunc func(d dist.Distribution) float64

// EvaluateBatchFromInto implements Evaluator.
func (f EvaluatorFunc) EvaluateBatchFromInto(out []float64, _ dist.Distribution, ds []dist.Distribution) {
	for i, d := range ds {
		out[i] = f(d)
	}
}

// Result is a search outcome.
type Result struct {
	Best        dist.Distribution
	Time        float64 // predicted execution time of Best
	Evaluations int     // model evaluations spent
	Algorithm   string
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s: %.4fs in %d evals, dist=%v", r.Algorithm, r.Time, r.Evaluations, r.Best)
}

// Searcher is one distribution-selection algorithm. Every searcher emits
// its candidates in batches, each naming its ancestor, and scores them on
// the caller's goroutine; results (Best, Time, Evaluations) are a
// function of the evaluator's scores and the seed alone. Evaluations
// measures how many model evaluations the search spent, since evaluation
// cost (≈5.4 ms in the paper) bounds how elaborate a runtime search can
// be.
type Searcher interface {
	// Search returns the best distribution found for total elements.
	Search(ev Evaluator, total int) Result
	// Name identifies the algorithm in reports.
	Name() string
}

// repair adjusts d (non-negative per-node blocks) to sum to total,
// spreading the correction across nodes proportionally to current sizes.
// It is used by the stochastic operators, whose raw offspring may be off
// by a few elements.
func repair(d dist.Distribution, total int) dist.Distribution {
	for i, b := range d {
		if b < 0 {
			d[i] = 0
		}
	}
	sum := d.Total()
	switch {
	case sum == total:
		return d
	case sum == 0:
		copy(d, dist.Block(total, len(d)))
		return d
	}
	weights := make([]float64, len(d))
	for i, b := range d {
		weights[i] = float64(b)
	}
	copy(d, dist.Proportional(total, weights))
	return d
}

// randomDist draws a random GEN_BLOCK distribution: weights from a noise
// stream, largest-remainder rounding. With probability zeroP each node is
// excluded (weight 0), letting the search consider leaving weak nodes
// idle.
func randomDist(nz *vclock.Noise, n, total int, zeroP float64) dist.Distribution {
	weights := make([]float64, n)
	positive := false
	for i := range weights {
		if nz.Float64() < zeroP {
			continue
		}
		weights[i] = 0.05 + nz.Float64()
		positive = true
	}
	if !positive {
		weights[nz.Intn(n)] = 1
	}
	return dist.Proportional(total, weights)
}
