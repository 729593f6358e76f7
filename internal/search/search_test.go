package search

import (
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

func TestSearchersDeterministic(t *testing.T) {
	ev := loadImbalanceEvaluator(hy1Speeds())
	searchers := []Searcher{
		&GBS{Spec: cluster.HY1(8), BytesPerElem: 4096},
		&Genetic{N: 8, Seed: 3},
		&Annealing{N: 8, Seed: 3},
		&Random{N: 8, Seed: 3},
	}
	for _, s := range searchers {
		a := s.Search(ev, searchTotal)
		b := s.Search(ev, searchTotal)
		if !a.Best.Equal(b.Best) || a.Time != b.Time {
			t.Errorf("%s not deterministic", s.Name())
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
