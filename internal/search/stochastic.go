package search

import (
	"math"
	"sort"

	"mheta/internal/dist"
	"mheta/internal/obs"
	"mheta/internal/vclock"
)

// counter wraps an Evaluator with an evaluation count. The stochastic
// searchers count every candidate (they do not memoise, preserving the
// serial algorithms' Evaluations exactly); GBS counts through lightMemo
// instead.
type counter struct {
	ev Evaluator
	n  int
}

// EvaluateBatchFromInto implements Evaluator.
func (c *counter) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	c.n += len(ds)
	c.ev.EvaluateBatchFromInto(out, base, ds)
}

func (c *counter) count() int { return c.n }

// Random samples Budget random GEN_BLOCK distributions (plus the Blk
// baseline) and keeps the best — the companion paper's control algorithm.
// The budget is evaluated in chunks: candidates are drawn from the seeded
// noise stream, then each chunk is scored in one batch.
type Random struct {
	N      int // node count to distribute over
	Budget int
	Seed   uint64
	// Obs, when non-nil, receives the "search.random.best" convergence
	// series (best score after each evaluated chunk).
	Obs *obs.Registry
}

// Name implements Searcher.
func (r *Random) Name() string { return "random" }

// randomChunk bounds how many candidates Random materialises between
// batch evaluations.
const randomChunk = 64

// Search implements Searcher.
func (r *Random) Search(ev Evaluator, total int) Result {
	budget := r.Budget
	if budget <= 0 {
		budget = 256
	}
	cev := &counter{ev: ev}
	sBest := r.Obs.Series("search.random.best")
	nz := vclock.NewNoise(r.Seed^0xAAD0, 0)
	n := r.N
	ds := make([]dist.Distribution, 1, randomChunk)
	ts := make([]float64, randomChunk)
	best := dist.Block(total, n)
	ds[0] = best
	cev.EvaluateBatchFromInto(ts[:1], nil, ds)
	bestT := ts[0]
	sBest.Append(0, bestT)
	for remaining := budget - 1; remaining > 0; {
		k := randomChunk
		if k > remaining {
			k = remaining
		}
		ds = ds[:0]
		for i := 0; i < k; i++ {
			ds = append(ds, randomDist(nz, n, total, 0.1))
		}
		cev.EvaluateBatchFromInto(ts[:k], best, ds)
		for i := 0; i < k; i++ {
			if ts[i] < bestT {
				bestT, best = ts[i], ds[i]
			}
		}
		remaining -= k
		sBest.Append(budget-1-remaining, bestT)
	}
	return Result{Best: best, Time: bestT, Evaluations: cev.count(), Algorithm: r.Name()}
}

// Genetic is a generational GA over GEN_BLOCK distributions: tournament
// selection, per-node arithmetic crossover with largest-remainder
// rounding, and element-migration mutation. Offspring are bred serially
// from the seeded noise stream, then each generation is scored in one
// batch (the draws never depend on the current generation's scores, so
// batching is exact, not approximate).
type Genetic struct {
	N           int
	Population  int
	Generations int
	MutateP     float64
	Seed        uint64
	// Obs, when non-nil, receives the "search.genetic.best" convergence
	// series (the elite's score after each generation).
	Obs *obs.Registry
}

// Name implements Searcher.
func (g *Genetic) Name() string { return "genetic" }

type scored struct {
	d dist.Distribution
	t float64
}

// Search implements Searcher.
func (g *Genetic) Search(ev Evaluator, total int) Result {
	pop := g.Population
	if pop <= 0 {
		pop = 32
	}
	gens := g.Generations
	if gens <= 0 {
		gens = 24
	}
	mp := g.MutateP
	if mp <= 0 {
		mp = 0.3
	}
	cev := &counter{ev: ev}
	sBest := g.Obs.Series("search.genetic.best")
	nz := vclock.NewNoise(g.Seed^0x6E7E, 0)

	cur := make([]scored, 0, pop)
	cur = append(cur, scored{dist.Block(total, g.N), 0})
	for len(cur) < pop {
		cur = append(cur, scored{randomDist(nz, g.N, total, 0.1), 0})
	}
	ds := make([]dist.Distribution, pop)
	ts := make([]float64, pop)
	for i := range cur {
		ds[i] = cur[i].d
	}
	cev.EvaluateBatchFromInto(ts[:pop], cur[0].d, ds[:pop])
	for i := range cur {
		cur[i].t = ts[i]
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].t < cur[j].t })
	sBest.Append(0, cur[0].t)

	tournament := func() dist.Distribution {
		a, b := nz.Intn(len(cur)), nz.Intn(len(cur))
		if cur[a].t <= cur[b].t {
			return cur[a].d
		}
		return cur[b].d
	}
	weights := make([]float64, g.N)
	for gen := 0; gen < gens; gen++ {
		// Breed the generation's offspring serially, then score them in
		// one batch. Elitism: the two best carry forward unchanged.
		nOff := pop - 2
		for i := 0; i < nOff; i++ {
			a, b := tournament(), tournament()
			mix := nz.Float64()
			for j := range weights {
				weights[j] = mix*float64(a[j]) + (1-mix)*float64(b[j])
			}
			// Largest-remainder rounding, exactly as dist.Proportional:
			// per-node truncation would always round toward zero and leave
			// a deficit for repair to redistribute, systematically biasing
			// offspring away from their parents' mix.
			child := make(dist.Distribution, g.N)
			if total > 0 {
				child = dist.ProportionalInto(child, total, weights)
			}
			if nz.Float64() < mp {
				mutate(nz, child, total)
			}
			ds[i] = child
		}
		cev.EvaluateBatchFromInto(ts[:nOff], cur[0].d, ds[:nOff])
		next := make([]scored, 0, pop)
		next = append(next, cur[0], cur[1])
		for i := 0; i < nOff; i++ {
			next = append(next, scored{ds[i], ts[i]})
		}
		cur = next
		sort.Slice(cur, func(i, j int) bool { return cur[i].t < cur[j].t })
		sBest.Append(gen+1, cur[0].t)
	}
	return Result{Best: cur[0].d.Clone(), Time: cur[0].t, Evaluations: cev.count(), Algorithm: g.Name()}
}

// acceptWorse decides the Metropolis test u < exp(x) for x ≤ 0 without
// always paying for the exponential: exp(x) ≥ 1+x and, for x ≤ 0,
// exp(x) ≤ 1/(1−x), so draws clearly below the lower bound accept and
// draws at or above the upper bound reject. Both bounds carry a 1e-15
// slack — far above the ≤2-ulp rounding of 1+x and 1/(1−x) on [−1, 0],
// the only range where the bounds can sit near u — so a shortcut fires
// only when the exact test would agree; everything in the gap (width
// ≈ x², so rare at both temperature extremes) falls through to math.Exp.
// The decision is bit-for-bit the one `u < math.Exp(x)` makes.
func acceptWorse(u, x float64) bool {
	if u < 1+x-1e-15 {
		return true
	}
	if u >= 1/(1-x)+1e-15 {
		return false
	}
	return u < math.Exp(x)
}

// mutate moves a random fraction of one node's block to another node.
func mutate(nz *vclock.Noise, d dist.Distribution, total int) {
	n := len(d)
	from := nz.Intn(n)
	if d[from] == 0 {
		// Find any donor.
		for i := range d {
			if d[i] > 0 {
				from = i
				break
			}
		}
	}
	to := nz.Intn(n)
	if to == from {
		to = (to + 1) % n
	}
	if d[from] == 0 {
		return
	}
	amt := 1 + nz.Intn(d[from])
	d[from] -= amt
	d[to] += amt
}

// Annealing is simulated annealing with an element-migration neighbour
// move and geometric cooling. With Fan > 1 each step drafts a fan of
// speculative neighbours from the current state, scores them in one batch
// against the current state as ancestor, and feeds the best to the usual
// accept/reject rule; Fan 1 reproduces the classic single-neighbour
// chain exactly.
type Annealing struct {
	N       int
	Steps   int
	T0      float64 // initial temperature as a fraction of the start cost
	Cooling float64 // geometric factor per step
	// Fan is the speculative neighbour count per step (default 1).
	Fan  int
	Seed uint64
	// Obs, when non-nil, receives the "search.annealing.best" convergence
	// series (best score after each step).
	Obs *obs.Registry
}

// Name implements Searcher.
func (a *Annealing) Name() string { return "annealing" }

// Search implements Searcher.
func (a *Annealing) Search(ev Evaluator, total int) Result {
	steps := a.Steps
	if steps <= 0 {
		steps = 600
	}
	t0 := a.T0
	if t0 <= 0 {
		t0 = 0.2
	}
	cool := a.Cooling
	if cool <= 0 || cool >= 1 {
		cool = 0.992
	}
	fan := a.Fan
	if fan <= 0 {
		fan = 1
	}
	cev := &counter{ev: ev}
	sBest := a.Obs.Series("search.annealing.best")
	nz := vclock.NewNoise(a.Seed^0x5AEA, 0)

	ds := make([]dist.Distribution, fan)
	for i := range ds {
		ds[i] = make(dist.Distribution, a.N)
	}
	ts := make([]float64, fan)
	cur := dist.Block(total, a.N)
	copy(ds[0], cur)
	cev.EvaluateBatchFromInto(ts[:1], nil, ds[:1])
	curT := ts[0]
	best, bestT := cur.Clone(), curT
	sBest.Append(0, bestT)
	temp := t0 * curT
	for s := 0; s < steps; s++ {
		for i := 0; i < fan; i++ {
			copy(ds[i], cur)
			mutate(nz, ds[i], total)
		}
		cev.EvaluateBatchFromInto(ts, cur, ds)
		ci := 0
		for i := 1; i < fan; i++ {
			if ts[i] < ts[ci] {
				ci = i
			}
		}
		candT := ts[ci]
		if candT < curT || acceptWorse(nz.Float64(), (curT-candT)/temp) {
			copy(cur, ds[ci])
			curT = candT
			if curT < bestT {
				bestT = curT
				copy(best, cur)
			}
		}
		temp *= cool
		sBest.Append(s+1, bestT)
	}
	return Result{Best: best, Time: bestT, Evaluations: cev.count(), Algorithm: a.Name()}
}
