package search

import (
	"fmt"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/obs"
)

// GBS is the generalized binary search of the companion paper [26]: it
// walks the Figure 8 spectrum legs (Blk→I-C→I-C/Bal→Bal) and binary
// searches each leg for its minimum, exploiting that the predicted time is
// close to unimodal along a leg ("An algorithm searching for a data
// distribution between I-C and I-C/Bal can use MHETA to determine which
// point results in the lowest execution time", §5.1). The search
// discretises each leg to Resolution interior points and narrows by
// golden-ratio-style thirds, so it spends O(legs·log Resolution) model
// evaluations.
//
// The legs narrow in lockstep — every round shrinks each active leg's
// span by the same third, so all legs finish together — which lets one
// batch carry both ternary probes of every leg (2·legs candidates), and a
// final batch carry every leg's surviving scan points. Candidate
// distributions are generated with dist.LerpInto into per-leg scratch,
// and scores are memoised (lightMemo), so the steady-state loop performs
// no allocations.
type GBS struct {
	Spec cluster.Spec
	// BytesPerElem is the combined per-element footprint of the
	// distributed variables (the I-C anchors need it).
	BytesPerElem int64
	// Resolution is the discretisation of each leg (default 64).
	Resolution int
	// Obs, when non-nil, receives the memo's hit/miss counters and the
	// convergence series: "search.gbs.best" (best score seen after each
	// batch) plus one "search.gbs.legNN.best" series per spectrum leg
	// (that leg's probe minimum per narrowing round). Observation only —
	// never read back into the search.
	Obs *obs.Registry
}

// Name implements Searcher.
func (g *GBS) Name() string { return "gbs" }

// gbsLeg is one active spectrum leg's ternary-search state. probes holds
// the leg's reusable candidate buffers: two for the narrowing probes,
// three for the final scan (hi−lo ≤ 2 when narrowing stops).
type gbsLeg struct {
	a, b   dist.Distribution
	lo, hi int
	probes [3]dist.Distribution
	// kScore[k] is the leg's evaluated time at discretisation index k, 0
	// while unknown. Narrowing rounds revisit indexes (a losing probe
	// often returns as the next round's probe, and the final scan covers
	// the last span again), so this skips regenerating and rehashing the
	// candidate entirely. It sits above the memo — a revisited index was
	// a memo hit before, so Evaluations is unchanged. The zero sentinel
	// is safe: a genuinely zero-time point (impossible for positive
	// workloads) would merely be re-looked-up in the memo, scoring the
	// same value and no extra evaluation.
	kScore []float64
}

// point interpolates discretisation index k into buffer slot s.
func (l *gbsLeg) point(k, res, s int) dist.Distribution {
	l.probes[s] = dist.LerpInto(l.probes[s], l.a, l.b, float64(k)/float64(res))
	return l.probes[s]
}

// Search implements Searcher.
func (g *GBS) Search(ev Evaluator, total int) Result {
	res := g.Resolution
	if res <= 0 {
		res = 64
	}
	// GBS owns its memo privately (one per Search call, one goroutine), so
	// it uses the lock-free lightMemo; a shared, concurrent memo would be a
	// *Memo instead. Semantics — dedup, Evaluations, hit/miss counters —
	// are identical.
	memo := newLightMemo(ev)
	memo.Observe(g.Obs)
	sBest := g.Obs.Series("search.gbs.best")
	anchors := dist.Anchors(total, g.Spec, g.BytesPerElem)

	// Score every anchor in one batch (the memo collapses duplicates, so
	// a degenerate architecture whose anchors coincide costs one
	// evaluation).
	// One arena per element type covers every fixed-size buffer the search
	// needs — scores, index bookkeeping, probe backings, candidate slices —
	// so the whole call does a handful of allocations regardless of
	// resolution. batchT is shared by the anchor batch, the narrowing
	// rounds (2 probes per leg) and the final scans (3 points per leg);
	// legs ≤ anchors−1.
	maxLegs := len(anchors) - 1
	nodes := len(anchors[0].Dist)
	batchW := max(len(anchors), 3*maxLegs)
	fbuf := make([]float64, batchW+maxLegs*(res+1))
	batchT := fbuf[:batchW:batchW]
	kScores := fbuf[batchW:]
	ibuf := make([]int, 3*maxLegs*nodes+6*maxLegs)
	probeBuf := ibuf[:3*maxLegs*nodes]
	batchLeg := ibuf[len(probeBuf) : len(probeBuf) : len(probeBuf)+3*maxLegs]
	batchK := ibuf[len(probeBuf)+3*maxLegs : len(probeBuf)+3*maxLegs : len(ibuf)]
	dbuf := make([]dist.Distribution, len(anchors)+3*maxLegs)
	anchorDists := dbuf[:len(anchors):len(anchors)]
	batchD := dbuf[len(anchors):len(anchors):len(dbuf)]
	legArr := make([]gbsLeg, maxLegs)
	for i := range anchors {
		anchorDists[i] = anchors[i].Dist
	}
	anchorT := batchT[:len(anchors)]
	memo.EvaluateBatchFromInto(anchorT, nil, anchorDists)
	best, bestT := anchors[0].Dist.Clone(), anchorT[0]
	for i := 1; i < len(anchors); i++ {
		if anchorT[i] < bestT {
			bestT, best = anchorT[i], anchors[i].Dist.Clone()
		}
	}
	// seenBest tracks the best score any batch produced — a pure
	// observation for the convergence series; the algorithm's own best
	// (bestT) still considers only anchors and the final scans.
	seenBest := bestT
	sBest.Append(0, seenBest)

	// Collect the non-degenerate legs. Each leg's endpoint scores are
	// already known from the anchor batch, so they seed the k-score
	// caches, which share one flat backing allocation.
	// probeBuf pre-sizes every leg's three probe buffers (full-cap
	// sub-slices, so LerpInto reuses them in place and the narrowing loop
	// never allocates); batchLeg/batchK record which (leg, index) each
	// batch entry scores, so results write back into the k-score caches.
	legs := make([]*gbsLeg, 0, maxLegs)
	for leg := 0; leg+1 < len(anchors); leg++ {
		a, b := anchors[leg].Dist, anchors[leg+1].Dist
		if a.Equal(b) {
			continue
		}
		ks := kScores[len(legs)*(res+1) : (len(legs)+1)*(res+1)]
		ks[0] = anchorT[leg]
		ks[res] = anchorT[leg+1]
		l := &legArr[len(legs)]
		l.a, l.b, l.lo, l.hi, l.kScore = a, b, 0, res, ks
		for s := range l.probes {
			off := (3*len(legs) + s) * nodes
			l.probes[s] = dist.Distribution(probeBuf[off : off+nodes : off+nodes])
		}
		legs = append(legs, l)
	}
	if len(legs) == 0 {
		return Result{Best: best, Time: bestT, Evaluations: memo.Evaluations(), Algorithm: g.Name()}
	}

	var sLegs []*obs.Series
	if g.Obs != nil {
		sLegs = make([]*obs.Series, len(legs))
		for i := range legs {
			sLegs[i] = g.Obs.Series(fmt.Sprintf("search.gbs.leg%02d.best", i))
		}
	}

	// Ternary narrowing: every leg's span shrinks from w to w−w/3 each
	// round regardless of which probe wins, so all legs stay in lockstep
	// and each round is one 2·legs-wide batch.
	rounds := 0
	for round := 1; legs[0].hi-legs[0].lo > 2; round++ {
		batchD, batchLeg, batchK = batchD[:0], batchLeg[:0], batchK[:0]
		for li, l := range legs {
			m1 := l.lo + (l.hi-l.lo)/3
			m2 := l.hi - (l.hi-l.lo)/3
			if l.kScore[m1] == 0 {
				batchD = append(batchD, l.point(m1, res, 0))
				batchLeg = append(batchLeg, li)
				batchK = append(batchK, m1)
			}
			if l.kScore[m2] == 0 {
				batchD = append(batchD, l.point(m2, res, 1))
				batchLeg = append(batchLeg, li)
				batchK = append(batchK, m2)
			}
		}
		if len(batchD) > 0 {
			memo.EvaluateBatchFromInto(batchT[:len(batchD)], best, batchD)
			for j := range batchD {
				legs[batchLeg[j]].kScore[batchK[j]] = batchT[j]
			}
		}
		for i, l := range legs {
			m1 := l.lo + (l.hi-l.lo)/3
			m2 := l.hi - (l.hi-l.lo)/3
			t1, t2 := l.kScore[m1], l.kScore[m2]
			if t1 <= t2 {
				l.hi = m2
			} else {
				l.lo = m1
			}
			if probeMin := min(t1, t2); sLegs != nil {
				sLegs[i].Append(round, probeMin)
				if probeMin < seenBest {
					seenBest = probeMin
				}
			}
		}
		sBest.Append(round, seenBest)
		rounds = round
	}

	// Final scan: every leg's surviving ≤3 points in one batch (those the
	// narrowing probes already scored come straight from the cache).
	batchD, batchLeg, batchK = batchD[:0], batchLeg[:0], batchK[:0]
	for li, l := range legs {
		for k := l.lo; k <= l.hi; k++ {
			if l.kScore[k] == 0 {
				batchD = append(batchD, l.point(k, res, k-l.lo))
				batchLeg = append(batchLeg, li)
				batchK = append(batchK, k)
			}
		}
	}
	if len(batchD) > 0 {
		memo.EvaluateBatchFromInto(batchT[:len(batchD)], best, batchD)
		for j := range batchD {
			legs[batchLeg[j]].kScore[batchK[j]] = batchT[j]
		}
	}
	// Pick the scan winner in the same (leg, ascending k) order and with
	// the same strict-< tie-break the unbatched scan used.
	var bestLeg *gbsLeg
	bestK := 0
	for _, l := range legs {
		for k := l.lo; k <= l.hi; k++ {
			if t := l.kScore[k]; t < bestT {
				bestT = t
				bestLeg, bestK = l, k
			}
		}
	}
	if bestLeg != nil {
		// Regenerate the winning point into a fresh buffer (LerpInto is
		// deterministic, so this is the distribution that scored bestT).
		best = dist.LerpInto(nil, bestLeg.a, bestLeg.b, float64(bestK)/float64(res))
	}
	if bestT < seenBest {
		seenBest = bestT
	}
	sBest.Append(rounds+1, seenBest)
	return Result{Best: best, Time: bestT, Evaluations: memo.Evaluations(), Algorithm: g.Name()}
}
