package search

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/obs"
)

// panicEvaluator panics on one designated distribution and otherwise
// scores by total element count.
type panicEvaluator struct {
	bad   uint64 // hash of the distribution to panic on
	armed atomic.Bool
	calls atomic.Int64
}

func (p *panicEvaluator) EvaluateBatchFromInto(out []float64, _ dist.Distribution, ds []dist.Distribution) {
	for i, d := range ds {
		p.calls.Add(1)
		if p.armed.Load() && d.Hash() == p.bad {
			panic("panicEvaluator: injected failure")
		}
		out[i] = float64(d.Total())
	}
}

// evalOne scores one candidate through ev as a batch of one with no
// ancestry.
func evalOne(ev Evaluator, d dist.Distribution) float64 {
	var out [1]float64
	ev.EvaluateBatchFromInto(out[:], nil, []dist.Distribution{d})
	return out[0]
}

// TestMemoBatchPanicDoesNotPoison pins the first half of the batch-memo
// bugfix: before the rewrite, EvaluateBatchInto reserved in-batch keys
// with a placeholder 0 in the table, so a panicking inner evaluator left
// every key of the batch permanently memoised as zero. Now a panic must
// unwind with the table exactly as it was, and a later evaluation of the
// same keys must produce real scores.
func TestMemoBatchPanicDoesNotPoison(t *testing.T) {
	good := dist.Distribution{3, 5}
	bad := dist.Distribution{6, 2}
	ev := &panicEvaluator{bad: bad.Hash()}
	ev.armed.Store(true)
	m := NewMemo(ev)

	batch := []dist.Distribution{good, bad}
	out := make([]float64, len(batch))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not propagate")
			}
		}()
		m.EvaluateBatchInto(out, batch)
	}()

	if m.Len() != 0 {
		t.Fatalf("table holds %d entries after a panicked batch, want 0", m.Len())
	}
	if m.Evaluations() != 0 {
		t.Fatalf("evaluations %d after a panicked batch, want 0", m.Evaluations())
	}

	// The memo must still work — and must not serve a poisoned zero.
	ev.armed.Store(false)
	if got := evalOne(m, good); got != 8 {
		t.Fatalf("good after panic = %v, want 8", got)
	}
	if got := evalOne(m, bad); got != 8 {
		t.Fatalf("bad after panic = %v, want 8", got)
	}
	m.EvaluateBatchInto(out, batch)
	if out[0] != 8 || out[1] != 8 {
		t.Fatalf("batch after panic = %v, want [8 8]", out)
	}
}

// TestMemoSinglePanicDoesNotPoison is the same contract for a single
// candidate, which is a batch of one.
func TestMemoSinglePanicDoesNotPoison(t *testing.T) {
	bad := dist.Distribution{1, 7}
	ev := &panicEvaluator{bad: bad.Hash()}
	ev.armed.Store(true)
	m := NewMemo(ev)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not propagate")
			}
		}()
		evalOne(m, bad)
	}()
	if m.Len() != 0 || m.Evaluations() != 0 {
		t.Fatalf("len %d evals %d after panic, want 0 0", m.Len(), m.Evaluations())
	}
	ev.armed.Store(false)
	if got := evalOne(m, bad); got != 8 {
		t.Fatalf("after panic = %v, want 8", got)
	}
}

// TestMemoWaiterRecoversFromPanickedOwner pins the waiter side: a
// goroutine waiting on a key whose owner panics must re-evaluate the key
// itself rather than hang or read a zero.
func TestMemoWaiterRecoversFromPanickedOwner(t *testing.T) {
	bad := dist.Distribution{4, 4}
	started := make(chan struct{})
	release := make(chan struct{})
	first := atomic.Bool{}
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 {
		if first.CompareAndSwap(false, true) {
			close(started)
			<-release
			panic("owner dies")
		}
		return float64(d.Total())
	}))

	ownerDone := make(chan struct{})
	go func() {
		defer func() {
			recover()
			close(ownerDone)
		}()
		evalOne(m, bad)
	}()
	<-started

	waiterDone := make(chan float64, 1)
	go func() {
		waiterDone <- evalOne(m, bad)
	}()
	close(release)
	<-ownerDone
	if got := <-waiterDone; got != 8 {
		t.Fatalf("waiter got %v, want 8 (re-evaluated after owner panic)", got)
	}
}

// TestMemoConcurrentSharedUse drives one memo from concurrent single
// evaluators and batch callers (run under -race in CI). Before the
// rewrite every Evaluate serialized behind the whole batch because the
// batch held the table lock across the inner evaluation; now the only
// wait is on a key the batch is actually computing.
func TestMemoConcurrentSharedUse(t *testing.T) {
	var inner atomic.Int64
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 {
		inner.Add(1)
		return float64(d.Total()*3 + len(d))
	}))
	want := func(d dist.Distribution) float64 { return float64(d.Total()*3 + len(d)) }

	mk := func(i int) dist.Distribution { return dist.Distribution{i, 2 * i, 64 - 3*i} }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < 16; i++ {
					d := mk((i + g) % 16)
					if got := evalOne(m, d); got != want(d) {
						t.Errorf("evalOne(%v) = %v, want %v", d, got, want(d))
						return
					}
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			ds := make([]dist.Distribution, 16)
			out := make([]float64, 16)
			for rep := 0; rep < 50; rep++ {
				for i := range ds {
					ds[i] = mk((2*i + g) % 16)
				}
				m.EvaluateBatchInto(out, ds)
				for i := range ds {
					if out[i] != want(ds[i]) {
						t.Errorf("batch out[%d] = %v, want %v", i, out[i], want(ds[i]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Every distinct key is evaluated at most once per epoch; with no
	// limit set there is one epoch, so at most 16 inner calls.
	if inner.Load() > 16 {
		t.Fatalf("%d inner evaluations for 16 distinct keys", inner.Load())
	}
	if m.Len() != 16 || m.Evaluations() != int(inner.Load()) {
		t.Fatalf("len %d evals %d inner %d", m.Len(), m.Evaluations(), inner.Load())
	}
}

// overlapDetector is an inner evaluator that records whether two calls
// into it ever overlap. It yields inside each call so that, without
// serialisation, a second caller gets the chance to enter.
type overlapDetector struct {
	busy     atomic.Bool
	overlaps atomic.Int64
}

func (o *overlapDetector) EvaluateBatchFromInto(out []float64, _ dist.Distribution, ds []dist.Distribution) {
	if !o.busy.CompareAndSwap(false, true) {
		o.overlaps.Add(1)
		return
	}
	for i, d := range ds {
		runtime.Gosched()
		out[i] = float64(d.Total())
	}
	o.busy.Store(false)
}

// TestMemoSerialisesInner pins the Memo's evalMu contract: concurrent
// callers whose keys all miss never enter the inner evaluator at the
// same time, so a single-goroutine evaluator can sit under a shared Memo.
func TestMemoSerialisesInner(t *testing.T) {
	inner := &overlapDetector{}
	m := NewMemo(inner)
	const goroutines, keys, batch = 4, 200, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ds := make([]dist.Distribution, batch)
			out := make([]float64, batch)
			for k := 0; k < keys; k += batch {
				for i := range ds {
					ds[i] = dist.Distribution{g, k + i}
				}
				m.EvaluateBatchInto(out, ds)
			}
		}(g)
	}
	wg.Wait()
	if n := inner.overlaps.Load(); n != 0 {
		t.Fatalf("%d calls entered the inner evaluator while another was running", n)
	}
	if m.Evaluations() != goroutines*keys {
		t.Fatalf("evaluations %d, want %d distinct keys", m.Evaluations(), goroutines*keys)
	}
}

// TestMemoEvictionLimit covers the epoch eviction and its counter.
func TestMemoEvictionLimit(t *testing.T) {
	var calls atomic.Int64
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 {
		calls.Add(1)
		return float64(d.Total())
	}))
	reg := obs.New()
	m.Observe(reg)
	m.SetLimit(3)
	for i := 1; i <= 4; i++ {
		evalOne(m, dist.Distribution{i, i})
	}
	// The 4th publish grew the table to 4 > 3: everything evicted.
	if m.Len() != 0 {
		t.Fatalf("len %d after eviction, want 0", m.Len())
	}
	if m.Evictions() != 4 {
		t.Fatalf("evictions %d, want 4", m.Evictions())
	}
	if got := reg.Counter("search.memo.evictions").Value(); got != 4 {
		t.Fatalf("eviction counter %d, want 4", got)
	}
	// Re-seeing an evicted key is a fresh miss.
	evalOne(m, dist.Distribution{1, 1})
	if calls.Load() != 5 || m.Evaluations() != 5 {
		t.Fatalf("calls %d evals %d, want 5", calls.Load(), m.Evaluations())
	}
}

// TestMemoSetLimitShrinkEvictsNow pins the immediate-bound semantics:
// shrinking the limit below the current table size evicts at the SetLimit
// call itself, not at the next publish. An already-warm table that stops
// publishing (a server's shared memo between request bursts) used to stay
// oversized indefinitely.
func TestMemoSetLimitShrinkEvictsNow(t *testing.T) {
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 { return float64(d.Total()) }))
	for i := 1; i <= 8; i++ {
		evalOne(m, dist.Distribution{i, i})
	}
	if m.Len() != 8 {
		t.Fatalf("len %d after 8 distinct keys, want 8", m.Len())
	}
	m.SetLimit(3)
	if m.Len() != 0 {
		t.Fatalf("len %d immediately after shrinking limit to 3, want 0 (epoch clear)", m.Len())
	}
	if m.Evictions() != 8 {
		t.Fatalf("evictions %d, want 8", m.Evictions())
	}
	// Growing (or keeping) the limit above the table size evicts nothing.
	evalOne(m, dist.Distribution{1, 1})
	evalOne(m, dist.Distribution{2, 2})
	m.SetLimit(5)
	if m.Len() != 2 || m.Evictions() != 8 {
		t.Fatalf("len %d evictions %d after widening limit, want 2 and 8", m.Len(), m.Evictions())
	}
}

// TestMemoObserveCounters checks hit/miss accounting on both paths.
func TestMemoObserveCounters(t *testing.T) {
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 { return float64(d.Total()) }))
	reg := obs.New()
	m.Observe(reg)
	d1, d2 := dist.Distribution{1, 2}, dist.Distribution{2, 1}
	batch := []dist.Distribution{d1, d2, d1.Clone()}
	out := make([]float64, 3)
	m.EvaluateBatchInto(out, batch) // 2 misses + 1 in-batch duplicate hit
	m.EvaluateBatchInto(out, batch) // 3 hits
	evalOne(m, d2)                  // 1 hit
	evalOne(m, dist.Distribution{3, 0})
	hits := reg.Counter("search.memo.hits").Value()
	misses := reg.Counter("search.memo.misses").Value()
	if misses != 3 {
		t.Fatalf("misses %d, want 3", misses)
	}
	if hits != 5 {
		t.Fatalf("hits %d, want 5", hits)
	}
	if m.Evaluations() != 3 {
		t.Fatalf("evaluations %d, want 3", m.Evaluations())
	}
}

func TestMemoDedup(t *testing.T) {
	var calls atomic.Int64
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 {
		calls.Add(1)
		return float64(d.Total())
	}))
	d1 := dist.Distribution{3, 5}
	d2 := dist.Distribution{4, 4}
	batch := []dist.Distribution{d1, d2, d1.Clone()} // in-batch duplicate
	out := make([]float64, len(batch))
	m.EvaluateBatchInto(out, batch)
	if out[0] != 8 || out[1] != 8 || out[2] != 8 {
		t.Fatalf("out %v", out)
	}
	if calls.Load() != 2 || m.Evaluations() != 2 {
		t.Fatalf("calls %d, evaluations %d, want 2", calls.Load(), m.Evaluations())
	}
	m.EvaluateBatchInto(out, batch) // fully memoised
	if got := evalOne(m, d2); got != 8 {
		t.Fatalf("single hit %v", got)
	}
	if calls.Load() != 2 || m.Evaluations() != 2 || m.Len() != 2 {
		t.Fatalf("after hits: calls %d, evaluations %d, len %d", calls.Load(), m.Evaluations(), m.Len())
	}
	if got := evalOne(m, dist.Distribution{8, 0}); got != 8 || m.Evaluations() != 3 {
		t.Fatalf("single miss %v, evaluations %d", got, m.Evaluations())
	}
}

// TestMemoisedBatchZeroAlloc pins the acceptance criterion: once a batch
// is memoised, re-evaluating it performs zero allocations.
func TestMemoisedBatchZeroAlloc(t *testing.T) {
	m := NewMemo(EvaluatorFunc(func(d dist.Distribution) float64 { return float64(d.Total()) }))
	ds := []dist.Distribution{{1, 2, 3}, {2, 2, 2}, {0, 3, 3}, {6, 0, 0}}
	out := make([]float64, len(ds))
	m.EvaluateBatchInto(out, ds) // warm
	allocs := testing.AllocsPerRun(200, func() {
		m.EvaluateBatchInto(out, ds)
	})
	if allocs != 0 {
		t.Fatalf("memoised batch allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		m.EvaluateBatchInto(out[:1], ds[:1]) // a batch of one
	})
	if allocs != 0 {
		t.Fatalf("memoised batch of one allocates %v/op, want 0", allocs)
	}
}

// TestSearcherConvergenceSeries asserts every searcher emits a
// non-increasing best-score series whose final value equals the result,
// and that observation does not change the result (metrics stay outside
// the evaluated values).
func TestSearcherConvergenceSeries(t *testing.T) {
	ev := loadImbalanceEvaluator(hy1Speeds())
	mk := func(reg *obs.Registry) []Searcher {
		return []Searcher{
			&Genetic{N: 8, Seed: 9, Obs: reg},
			&Annealing{N: 8, Seed: 9, Fan: 2, Obs: reg},
			&Random{N: 8, Seed: 9, Obs: reg},
		}
	}
	plain := mk(nil)
	reg := obs.New()
	observed := mk(reg)
	for i := range plain {
		want := plain[i].Search(ev, searchTotal)
		got := observed[i].Search(ev, searchTotal)
		if !want.Best.Equal(got.Best) || want.Time != got.Time || want.Evaluations != got.Evaluations {
			t.Errorf("%s: observation changed the result: %+v vs %+v", plain[i].Name(), want, got)
		}
		name := "search." + plain[i].Name() + ".best"
		samples := reg.Series(name).Samples()
		if len(samples) < 2 {
			t.Fatalf("%s: %d samples", name, len(samples))
		}
		for j := 1; j < len(samples); j++ {
			if samples[j].Value > samples[j-1].Value {
				t.Errorf("%s: series increased at %d: %v -> %v", name, j, samples[j-1].Value, samples[j].Value)
			}
			if samples[j].Step <= samples[j-1].Step {
				t.Errorf("%s: steps not increasing at %d", name, j)
			}
		}
		if last := samples[len(samples)-1].Value; last != got.Time {
			t.Errorf("%s: final sample %v != result time %v", name, last, got.Time)
		}
	}
}

// TestGBSConvergenceSeries covers GBS separately: its overall series
// tracks "best seen in any batch" (probes included), so it must be
// non-increasing and end at or below the result time, and each
// non-degenerate leg must have a per-round series.
func TestGBSConvergenceSeries(t *testing.T) {
	ev := loadImbalanceEvaluator(hy1Speeds())
	reg := obs.New()
	g := &GBS{Spec: cluster.HY1(8), BytesPerElem: 4096, Obs: reg}
	plain := &GBS{Spec: g.Spec, BytesPerElem: g.BytesPerElem}
	want := plain.Search(ev, searchTotal)
	got := g.Search(ev, searchTotal)
	if !want.Best.Equal(got.Best) || want.Time != got.Time || want.Evaluations != got.Evaluations {
		t.Fatalf("observation changed the result: %+v vs %+v", want, got)
	}
	samples := reg.Series("search.gbs.best").Samples()
	if len(samples) < 3 {
		t.Fatalf("gbs best series has %d samples", len(samples))
	}
	for j := 1; j < len(samples); j++ {
		if samples[j].Value > samples[j-1].Value {
			t.Fatalf("gbs best series increased at %d", j)
		}
	}
	if last := samples[len(samples)-1].Value; last > got.Time {
		t.Fatalf("final best-seen %v above result time %v", last, got.Time)
	}
	if reg.Series("search.gbs.leg00.best").Len() == 0 {
		t.Fatal("no per-leg series recorded")
	}
	if reg.Counter("search.memo.misses").Value() != int64(got.Evaluations) {
		t.Fatalf("memo miss counter %d != evaluations %d",
			reg.Counter("search.memo.misses").Value(), got.Evaluations)
	}
}
