package search

import (
	"sync"
	"testing"
	"testing/quick"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/vclock"
)

// loadImbalanceEvaluator scores a distribution as the max per-node time
// of a cluster with per-node speeds — a cheap, well-understood surrogate
// for the MHETA model with a known optimum (proportional to speed).
func loadImbalanceEvaluator(speeds []float64) EvaluatorFunc {
	return EvaluatorFunc(func(d dist.Distribution) float64 {
		worst := 0.0
		for i, b := range d {
			t := float64(b) / speeds[i]
			if t > worst {
				worst = t
			}
		}
		return worst + 1e-9 // keep strictly positive
	})
}

func hy1Speeds() []float64 {
	spec := cluster.HY1(8)
	out := make([]float64, spec.N())
	for i, n := range spec.Nodes {
		out[i] = n.CPUPower
	}
	return out
}

const searchTotal = 800

// specEvaluator is a cheap surrogate for the MHETA model that still
// depends on every Table 1 axis: per-node time is work over CPU power,
// plus a disk-scaled penalty for the share that spills out of core.
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

func optimum(speeds []float64, total int) float64 {
	sum := 0.0
	for _, s := range speeds {
		sum += s
	}
	return float64(total) / sum
}

func TestGBSBeatsBlock(t *testing.T) {
	spec := cluster.HY1(8)
	ev := loadImbalanceEvaluator(hy1Speeds())
	g := &GBS{Spec: spec, BytesPerElem: 4096}
	res := g.Search(ev, searchTotal)
	blk := ev(dist.Block(searchTotal, 8))
	if res.Time >= blk {
		t.Fatalf("GBS %v not better than Blk %v", res.Time, blk)
	}
	// The Bal anchor is the optimum of this evaluator; GBS must land
	// within 10% of it.
	if res.Time > optimum(hy1Speeds(), searchTotal)*1.10 {
		t.Fatalf("GBS %v far from optimum %v", res.Time, optimum(hy1Speeds(), searchTotal))
	}
	if res.Evaluations <= 0 || res.Algorithm != "gbs" {
		t.Fatalf("result %+v", res)
	}
	if err := res.Best.Validate(searchTotal); err != nil {
		t.Fatal(err)
	}
}

func TestGBSDegenerateClusterReturnsBlk(t *testing.T) {
	spec := cluster.HY1(8)
	for i := range spec.Nodes {
		spec.Nodes[i] = spec.Nodes[0]
	}
	spec.Nodes[0].CPUPower = spec.Nodes[1].CPUPower // fully homogeneous
	ev := loadImbalanceEvaluator([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	g := &GBS{Spec: spec, BytesPerElem: 4096}
	res := g.Search(ev, searchTotal)
	if !res.Best.Equal(dist.Block(searchTotal, 8)) {
		t.Fatalf("homogeneous cluster: best %v, want Blk", res.Best)
	}
}

func TestGeneticFindsGoodDistribution(t *testing.T) {
	ev := loadImbalanceEvaluator(hy1Speeds())
	g := &Genetic{N: 8, Seed: 7}
	res := g.Search(ev, searchTotal)
	if err := res.Best.Validate(searchTotal); err != nil {
		t.Fatal(err)
	}
	opt := optimum(hy1Speeds(), searchTotal)
	if res.Time > opt*1.25 {
		t.Fatalf("genetic %v too far from optimum %v", res.Time, opt)
	}
}

func TestAnnealingImprovesOnBlk(t *testing.T) {
	ev := loadImbalanceEvaluator(hy1Speeds())
	a := &Annealing{N: 8, Seed: 7}
	res := a.Search(ev, searchTotal)
	if err := res.Best.Validate(searchTotal); err != nil {
		t.Fatal(err)
	}
	blk := ev(dist.Block(searchTotal, 8))
	if res.Time >= blk {
		t.Fatalf("annealing %v not better than Blk %v", res.Time, blk)
	}
}

func TestRandomNeverWorseThanBlk(t *testing.T) {
	ev := loadImbalanceEvaluator(hy1Speeds())
	r := &Random{N: 8, Seed: 7}
	res := r.Search(ev, searchTotal)
	blk := ev(dist.Block(searchTotal, 8))
	if res.Time > blk {
		t.Fatalf("random %v worse than its own Blk baseline %v", res.Time, blk)
	}
	if res.Evaluations != 256 {
		t.Fatalf("budget %d, want 256", res.Evaluations)
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

// tableOneSearchers returns fresh instances of the four searchers on a
// fixed seed for spec.
func tableOneSearchers(spec cluster.Spec) []Searcher {
	return []Searcher{
		&GBS{Spec: spec, BytesPerElem: 4096},
		&Genetic{N: spec.N(), Seed: 11},
		&Annealing{N: spec.N(), Seed: 11, Fan: 4},
		&Random{N: spec.N(), Seed: 11},
	}
}

// sameResult reports whether two search results agree on Best, Time and
// Evaluations.
func sameResult(a, b Result) bool {
	return a.Best.Equal(b.Best) && a.Time == b.Time && a.Evaluations == b.Evaluations
}

// TestSearchersDeterministic is the determinism contract: for every
// searcher and every Table 1 architecture, repeating a search on a fixed
// seed returns identical Best, Time and Evaluations.
func TestSearchersDeterministic(t *testing.T) {
	const total = 1200
	for _, spec := range []cluster.Spec{cluster.DC(8), cluster.IO(8), cluster.HY1(8), cluster.HY2(8)} {
		ev := specEvaluator(spec, 4096)
		for _, s := range tableOneSearchers(spec) {
			want := s.Search(ev, total)
			if got := s.Search(ev, total); !sameResult(got, want) {
				t.Errorf("%s on %s: repeat (%v, %v, %d evals), first run (%v, %v, %d evals)",
					s.Name(), spec.Name,
					got.Best, got.Time, got.Evaluations,
					want.Best, want.Time, want.Evaluations)
			}
		}
	}
}

// TestParallelSerialEquivalence checks that sharing one Memo between
// concurrent searches, as serve's engine does, changes no result: for
// every searcher and every Table 1 architecture, a search on the plain
// evaluator, one through a private Memo and four run at once on their
// own goroutines over one shared Memo all return identical Best, Time and
// Evaluations.
func TestParallelSerialEquivalence(t *testing.T) {
	const (
		total   = 1200
		workers = 4
	)
	for _, spec := range []cluster.Spec{cluster.DC(8), cluster.IO(8), cluster.HY1(8), cluster.HY2(8)} {
		ev := specEvaluator(spec, 4096)
		for i, s := range tableOneSearchers(spec) {
			serial := s.Search(ev, total)
			if got := s.Search(NewMemo(ev), total); !sameResult(got, serial) {
				t.Errorf("%s on %s: Memo = (%v, %v, %d evals), serial = (%v, %v, %d evals)",
					s.Name(), spec.Name,
					got.Best, got.Time, got.Evaluations,
					serial.Best, serial.Time, serial.Evaluations)
			}
			shared := NewMemo(ev)
			results := make([]Result, workers)
			var wg sync.WaitGroup
			for w := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[w] = tableOneSearchers(spec)[i].Search(shared, total)
				}()
			}
			wg.Wait()
			for w, got := range results {
				if !sameResult(got, serial) {
					t.Errorf("%s on %s: shared Memo search %d = (%v, %v, %d evals), serial = (%v, %v, %d evals)",
						s.Name(), spec.Name, w,
						got.Best, got.Time, got.Evaluations,
						serial.Best, serial.Time, serial.Evaluations)
				}
			}
		}
	}
}

func TestCountingEvaluator(t *testing.T) {
	c := &counter{ev: EvaluatorFunc(func(d dist.Distribution) float64 { return 1 })}
	evalOne(c, dist.Distribution{1})
	evalOne(c, dist.Distribution{1})
	out := make([]float64, 3)
	c.EvaluateBatchFromInto(out, nil, []dist.Distribution{{1}, {2}, {3}})
	if c.count() != 5 {
		t.Fatalf("count %d, want 5", c.count())
	}
}

func TestRepairProperty(t *testing.T) {
	f := func(raw []int16, totRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		total := int(totRaw)%5000 + 1
		d := make(dist.Distribution, len(raw))
		for i, r := range raw {
			d[i] = int(r) // may be negative
		}
		got := repair(d, total)
		return got.Validate(total) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMutatePreservesTotal(t *testing.T) {
	nz := vclock.NewNoise(1, 0)
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		d := make(dist.Distribution, len(raw))
		total := 0
		for i, r := range raw {
			d[i] = int(r)
			total += int(r)
		}
		if total == 0 {
			return true
		}
		mutate(nz, d, total)
		return d.Validate(total) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDistValidProperty(t *testing.T) {
	nz := vclock.NewNoise(9, 0)
	f := func(nRaw, totRaw uint8) bool {
		n := int(nRaw)%12 + 1
		total := int(totRaw) + 1
		d := randomDist(nz, n, total, 0.2)
		return len(d) == n && d.Validate(total) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Best: dist.Distribution{1, 2}, Time: 0.5, Evaluations: 10, Algorithm: "x"}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}
