package search

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mheta/internal/dist"
	"mheta/internal/obs"
)

// BatchEvaluator is an Evaluator that can score many candidates at once.
// The searchers emit their independent candidates in batches; a
// BatchEvaluator is free to spread a batch across goroutines as long as
// out[i] is the same value a serial Evaluate(ds[i]) would produce.
type BatchEvaluator interface {
	Evaluator
	// EvaluateBatchInto scores ds[i] into out[i]; len(out) must equal
	// len(ds). Implementations must not retain ds past the call.
	EvaluateBatchInto(out []float64, ds []dist.Distribution)
}

// CloneableEvaluator is implemented by evaluators that are not safe for
// concurrent use; NewPool gives each worker its own clone instead of
// sharing one instance. ModelEvaluator implements it by cloning the
// underlying core.Model (one per goroutine, as the Model doc requires).
type CloneableEvaluator interface {
	Evaluator
	// CloneEvaluator returns an independent evaluator that produces
	// bit-identical scores.
	CloneEvaluator() Evaluator
}

// Pool evaluates candidate batches concurrently on a fixed set of
// workers. Worker w owns its own evaluator (a clone when the source
// implements CloneableEvaluator), and batch element i is always scored by
// worker i%workers, so results are bit-identical for any worker count —
// parallelism changes wall-clock time, never the search outcome.
//
// A Pool is itself an Evaluator (serial, on worker 0) and a
// BatchEvaluator, so every searcher accepts one directly. It has no
// background goroutines and needs no Close; workers are spawned per
// batch and a single-worker Pool evaluates inline.
//
// A Pool may be shared by concurrent callers — a Memo forwards
// overlapping batches' fresh sets concurrently — so calls serialise on an
// internal mutex: the worker evaluators are typically single-goroutine
// model clones, and parallelism happens across workers inside one call,
// never across calls.
type Pool struct {
	// mu serialises calls: each call needs exclusive use of the worker
	// evaluator set, because the workers are typically single-goroutine
	// model clones (DESIGN.md §5.12 — the PR 6 race was exactly two
	// overlapping Memo batches driving these clones concurrently). The
	// guardedby annotation makes mheta-lint enforce that invariant.
	mu  sync.Mutex
	evs []Evaluator //mheta:guardedby mu

	// Observability (nil when unobserved; see Observe). Worker
	// "utilization" is the per-worker share of batch evaluations — a pure
	// count, since wall clocks are banned in this package.
	obsBatches *obs.Counter
	obsEvals   *obs.Counter
	obsWorker  []*obs.Counter
}

// NewPool builds a pool of n workers over ev. n <= 0 selects
// runtime.GOMAXPROCS(0). If ev implements CloneableEvaluator each worker
// beyond the first gets a clone; otherwise ev is shared and must be safe
// for concurrent use (pure functions are).
func NewPool(ev Evaluator, n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	evs := make([]Evaluator, n)
	evs[0] = ev
	for i := 1; i < n; i++ {
		if c, ok := ev.(CloneableEvaluator); ok {
			evs[i] = c.CloneEvaluator()
		} else {
			evs[i] = ev
		}
	}
	return &Pool{evs: evs}
}

// Observe registers the pool's instruments on r: batch and evaluation
// counters plus one counter per worker (its evaluation share). Metrics
// are observations only — they never influence scheduling, which stays
// the deterministic i%workers stride. A nil registry disables them.
func (p *Pool) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obsBatches = r.Counter("search.pool.batches")
	p.obsEvals = r.Counter("search.pool.evaluations")
	p.obsWorker = make([]*obs.Counter, len(p.evs))
	for i := range p.evs {
		p.obsWorker[i] = r.Counter(fmt.Sprintf("search.pool.worker.%02d.evals", i))
	}
}

// Workers reports the worker count.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.evs)
}

// Evaluate implements Evaluator on worker 0.
func (p *Pool) Evaluate(d dist.Distribution) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.obsWorker != nil {
		p.obsEvals.Inc()
		p.obsWorker[0].Inc()
	}
	return p.evs[0].Evaluate(d)
}

// EvaluateBatch scores each candidate and returns the results in input
// order. See EvaluateBatchInto for the allocation-free variant.
func (p *Pool) EvaluateBatch(ds []dist.Distribution) []float64 {
	out := make([]float64, len(ds))
	p.EvaluateBatchInto(out, ds)
	return out
}

// EvaluateBatchInto implements BatchEvaluator: batch element i is scored
// by worker i%workers, each worker striding through the batch on its own
// evaluator.
func (p *Pool) EvaluateBatchInto(out []float64, ds []dist.Distribution) {
	p.EvaluateBatchFromInto(out, nil, ds)
}

// EvaluateFrom implements BaseEvaluator on worker 0, forwarding the base
// when the worker's evaluator is base-aware.
func (p *Pool) EvaluateFrom(base, d dist.Distribution) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.obsWorker != nil {
		p.obsEvals.Inc()
		p.obsWorker[0].Inc()
	}
	if be, ok := p.evs[0].(BaseEvaluator); ok {
		return be.EvaluateFrom(base, d)
	}
	return p.evs[0].Evaluate(d)
}

// EvaluateBatchFromInto implements BaseBatchEvaluator: the deterministic
// i%workers stride of EvaluateBatchInto, with the batch's ancestor handed
// to every base-aware worker (each warms the shared busy-term table for it
// once).
func (p *Pool) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	if len(out) != len(ds) {
		panic("search: batch output length mismatch")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w := len(p.evs)
	if w > len(ds) {
		w = len(ds)
	}
	if p.obsWorker != nil && len(ds) > 0 {
		p.obsBatches.Inc()
		p.obsEvals.Add(int64(len(ds)))
		for k := 0; k < w; k++ {
			p.obsWorker[k].Add(int64(strideLen(len(ds), k, w)))
		}
	}
	if w <= 1 {
		if len(ds) > 0 {
			evalStrideFrom(p.evs[0], out, base, ds, 0, 1)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		//mheta:lifecycle waitgroup
		go func(k int) {
			defer wg.Done()
			evalStrideFrom(p.evs[k], out, base, ds, k, w)
		}(k)
	}
	wg.Wait()
}

func evalStride(ev Evaluator, out []float64, ds []dist.Distribution, start, stride int) {
	for i := start; i < len(ds); i += stride {
		out[i] = ev.Evaluate(ds[i])
	}
}

func evalStrideFrom(ev Evaluator, out []float64, base dist.Distribution, ds []dist.Distribution, start, stride int) {
	if be, ok := ev.(BaseEvaluator); ok && base != nil {
		for i := start; i < len(ds); i += stride {
			out[i] = be.EvaluateFrom(base, ds[i])
		}
		return
	}
	evalStride(ev, out, ds, start, stride)
}

// strideLen counts the elements worker start handles in a batch of n with
// the given stride.
func strideLen(n, start, stride int) int {
	if start >= n {
		return 0
	}
	return (n-start-1)/stride + 1
}

// Memo is a thread-safe memoising evaluator keyed by the cheap 64-bit
// dist.Distribution.Hash. It replaces the allocating String()-keyed memo
// the serial GBS carried: hits cost two map operations and zero
// allocations. Batch evaluation deduplicates within the batch and against
// the table, forwards only the fresh candidates to the inner evaluator
// (concurrently, when the inner evaluator is a Pool), and counts exactly
// the fresh evaluations — so Evaluations is identical for any worker
// count.
//
// Publication is strictly after evaluation: a key being scored is held as
// a pending entry (never a placeholder value in the table), so a
// panicking inner evaluator unwinds without poisoning the table — the
// pending entries are rolled back and concurrent waiters retry the
// evaluation themselves. Single Evaluate calls never block behind a
// running batch unless they need a key that batch is computing, and
// concurrent batch calls run concurrently (each takes its own scratch
// from a free list): overlapping keys resolve through the pending
// protocol, so no caller convoys behind an unrelated batch.
type Memo struct {
	mu      sync.RWMutex
	table   map[uint64]float64      //mheta:guardedby mu
	pending map[uint64]*memoPending //mheta:guardedby mu
	single  Evaluator
	batch   BatchEvaluator     // non-nil when single supports batching
	base    BaseEvaluator      // non-nil when single is base-aware
	baseB   BaseBatchEvaluator // non-nil when single supports base-aware batching
	misses  atomic.Int64       //mheta:atomic

	// limit, when positive, bounds the table: the epoch after a publish
	// grows past limit entries, the whole table is cleared (deterministic
	// for a deterministic batch sequence — eviction depends only on
	// insertion history, never on goroutine timing).
	limit     int          //mheta:guardedby mu
	evictions atomic.Int64 //mheta:atomic

	// Observability (nil when unobserved; see Observe).
	obsHits, obsMisses, obsEvict *obs.Counter

	// scratchMu guards the free list of per-call batch scratch. Each
	// EvaluateBatchInto call checks one out (allocating only when the
	// list is empty) so fully-memoised batches allocate nothing and
	// concurrent batches never share, and never convoy on, scratch. A
	// plain free list, not a sync.Pool: the GC empties a sync.Pool at
	// arbitrary times, which would break the zero-allocation warm path.
	scratchMu   sync.Mutex
	scratchFree []*memoScratch //mheta:guardedby scratchMu
}

// memoScratch is one batch call's working set. Owned by exactly one
// batch call at a time (checked out of scratchFree under scratchMu), so
// its fields carry no //mheta:guardedby annotations: ownership, not a
// lock, is what makes them safe.
type memoScratch struct {
	freshD   []dist.Distribution
	freshH   []uint64
	freshT   []float64
	freshOut []int          // out index of each fresh candidate's first occurrence
	ownP     []*memoPending // pending entries this batch registered
	waitIdx  []int          // out indexes waiting on pending entries
	waitP    []*memoPending // the entries those indexes wait on
}

// memoPending marks a key whose evaluation is in flight. The done channel
// is created lazily — by the first waiter, under Memo.mu — so the common
// uncontended case (nobody waits) never allocates a channel; the owner
// closes it, if present, when it resolves the entry. The owner sets val
// and ok before the close; ok stays false when the owner's evaluation
// panicked, telling waiters to retry for ownership instead of consuming a
// poisoned zero.
type memoPending struct {
	done chan struct{} // lazily created under Memo.mu; nil if never awaited
	val  float64
	ok   bool
}

// wait returns the entry's done channel, creating it if this is the first
// waiter. Caller must hold Memo.mu.
func (p *memoPending) waitChanLocked() chan struct{} {
	if p.done == nil {
		p.done = make(chan struct{})
	}
	return p.done
}

// resolveLocked closes the done channel if any waiter created one. Caller
// must hold Memo.mu, and must have set val/ok first.
func (p *memoPending) resolveLocked() {
	if p.done != nil {
		close(p.done)
	}
}

// NewMemo wraps ev (batch-aware when it implements BatchEvaluator) with a
// fresh memo table.
func NewMemo(ev Evaluator) *Memo {
	m := &Memo{
		// Presized for a typical search's working set so the hot loop
		// never pays for map growth.
		table:   make(map[uint64]float64, 128),
		pending: make(map[uint64]*memoPending, 16),
		single:  ev,
	}
	if be, ok := ev.(BatchEvaluator); ok {
		m.batch = be
	}
	if be, ok := ev.(BaseEvaluator); ok {
		m.base = be
	}
	if bb, ok := ev.(BaseBatchEvaluator); ok {
		m.baseB = bb
	}
	return m
}

// getScratch checks a scratch set out of the free list.
func (m *Memo) getScratch() *memoScratch {
	m.scratchMu.Lock()
	if n := len(m.scratchFree); n > 0 {
		s := m.scratchFree[n-1]
		m.scratchFree = m.scratchFree[:n-1]
		m.scratchMu.Unlock()
		return s
	}
	m.scratchMu.Unlock()
	return &memoScratch{}
}

// putScratch clears the scratch's retained references (distributions and
// pending entries must not outlive the batch) and returns it to the free
// list.
func (m *Memo) putScratch(s *memoScratch) {
	for i := range s.freshD {
		s.freshD[i] = nil
	}
	for i := range s.ownP {
		s.ownP[i] = nil
	}
	for i := range s.waitP {
		s.waitP[i] = nil
	}
	s.freshD = s.freshD[:0]
	s.freshH = s.freshH[:0]
	s.freshT = s.freshT[:0]
	s.freshOut = s.freshOut[:0]
	s.ownP = s.ownP[:0]
	s.waitIdx = s.waitIdx[:0]
	s.waitP = s.waitP[:0]
	m.scratchMu.Lock()
	m.scratchFree = append(m.scratchFree, s)
	m.scratchMu.Unlock()
}

// Observe registers the memo's hit/miss/eviction counters on r. A nil
// registry disables them (the default); the disabled cost on the warm
// path is one nil check.
func (m *Memo) Observe(r *obs.Registry) {
	m.obsHits = r.Counter("search.memo.hits")
	m.obsMisses = r.Counter("search.memo.misses")
	m.obsEvict = r.Counter("search.memo.evictions")
}

// SetLimit bounds the memo table to n entries (0, the default, is
// unbounded). When a publish grows the table past n, the whole table is
// evicted — an epoch clear, the only policy whose outcome is a function
// of the insertion sequence alone. Evicted keys re-count as misses if
// re-evaluated, so set a limit only when memory matters more than a
// stable Evaluations figure.
//
// The bound applies immediately: shrinking the limit below the current
// table size evicts now rather than at the next publish, so a
// long-running shared memo (the server's cross-request table) releases
// memory the moment an operator tightens the limit — an already-warm
// table that never publishes again would otherwise stay oversized
// indefinitely.
func (m *Memo) SetLimit(n int) {
	m.mu.Lock()
	m.limit = n
	m.maybeEvictLocked()
	m.mu.Unlock()
}

// maybeEvictLocked applies the table bound; the caller holds mu.
func (m *Memo) maybeEvictLocked() {
	if m.limit <= 0 || len(m.table) <= m.limit {
		return
	}
	n := len(m.table)
	clear(m.table)
	m.evictions.Add(int64(n))
	m.obsEvict.Add(int64(n))
}

// Evaluate implements Evaluator with memoisation.
func (m *Memo) Evaluate(d dist.Distribution) float64 {
	h := d.Hash()
	for {
		m.mu.RLock()
		t, ok := m.table[h]
		m.mu.RUnlock()
		if ok {
			m.obsHits.Inc()
			return t
		}
		m.mu.Lock()
		if t, ok := m.table[h]; ok {
			m.mu.Unlock()
			m.obsHits.Inc()
			return t
		}
		if p, ok := m.pending[h]; ok {
			// Someone else is evaluating this key right now; wait for the
			// publish instead of duplicating the work.
			done := p.waitChanLocked()
			m.mu.Unlock()
			<-done
			if p.ok {
				m.obsHits.Inc()
				return p.val
			}
			continue // the owner panicked; retry for ownership
		}
		p := &memoPending{}
		m.pending[h] = p
		m.mu.Unlock()

		// Evaluate outside every lock; publish after, roll back on panic.
		func() {
			defer func() {
				m.mu.Lock()
				delete(m.pending, h)
				if p.ok {
					m.table[h] = p.val
					m.maybeEvictLocked()
				}
				p.resolveLocked()
				m.mu.Unlock()
			}()
			p.val = m.single.Evaluate(d)
			p.ok = true
		}()
		m.misses.Add(1)
		m.obsMisses.Inc()
		return p.val
	}
}

// EvaluateBatch scores each candidate (memoised) and returns the results
// in input order.
func (m *Memo) EvaluateBatch(ds []dist.Distribution) []float64 {
	out := make([]float64, len(ds))
	m.EvaluateBatchInto(out, ds)
	return out
}

// EvaluateBatchInto implements BatchEvaluator. Only candidates absent
// from the table are forwarded to the inner evaluator, each distinct
// distribution at most once per batch. The inner evaluation runs with no
// memo lock held, so concurrent Evaluate callers on a shared memo are
// delayed only if they ask for a key this batch is computing.
func (m *Memo) EvaluateBatchInto(out []float64, ds []dist.Distribution) {
	m.EvaluateBatchFromInto(out, nil, ds)
}

// EvaluateFrom implements BaseEvaluator, forwarding the base to the inner
// evaluator on a miss when it is base-aware. Memoisation semantics are
// identical to Evaluate (the base never changes a value, only how fast a
// miss is computed).
func (m *Memo) EvaluateFrom(base, d dist.Distribution) float64 {
	if m.base == nil || base == nil {
		return m.Evaluate(d)
	}
	h := d.Hash()
	m.mu.RLock()
	t, ok := m.table[h]
	m.mu.RUnlock()
	if ok {
		m.obsHits.Inc()
		return t
	}
	// Rare path (miss): reuse the batch machinery for the pending
	// protocol rather than duplicating it.
	var outBuf [1]float64
	dsBuf := [1]dist.Distribution{d}
	m.EvaluateBatchFromInto(outBuf[:], base, dsBuf[:])
	return outBuf[0]
}

// EvaluateBatchFromInto implements BaseBatchEvaluator: EvaluateBatchInto
// semantics, with the batch's common ancestor forwarded to the inner
// evaluator (when base-aware) for the fresh candidates.
func (m *Memo) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	if len(out) != len(ds) {
		panic("search: batch output length mismatch")
	}
	if len(ds) == 0 {
		return
	}
	s := m.getScratch()
	defer m.putScratch(s)

	// Classify under one lock: table hits resolve immediately, keys being
	// evaluated elsewhere (or duplicated within this batch) are waited on
	// after our own work, the rest we claim as pending.
	m.mu.Lock()
	hits := 0
	for i, d := range ds {
		h := d.Hash()
		if t, ok := m.table[h]; ok {
			out[i] = t
			hits++
			continue
		}
		if p, ok := m.pending[h]; ok {
			p.waitChanLocked()
			s.waitIdx = append(s.waitIdx, i)
			s.waitP = append(s.waitP, p)
			continue
		}
		p := &memoPending{}
		m.pending[h] = p
		s.ownP = append(s.ownP, p)
		s.freshD = append(s.freshD, d)
		s.freshH = append(s.freshH, h)
		s.freshOut = append(s.freshOut, i)
	}
	m.mu.Unlock()
	if hits > 0 {
		m.obsHits.Add(int64(hits))
	}

	if len(s.freshD) > 0 {
		if cap(s.freshT) < len(s.freshD) {
			s.freshT = make([]float64, len(s.freshD))
		}
		s.freshT = s.freshT[:len(s.freshD)]
		published := false
		func() {
			defer func() {
				if published {
					return
				}
				// The inner evaluator panicked: withdraw our claims so the
				// table keeps no trace of this batch, and wake waiters with
				// ok=false so they re-evaluate rather than read zeros.
				m.mu.Lock()
				for _, h := range s.freshH {
					delete(m.pending, h)
				}
				for _, p := range s.ownP {
					p.resolveLocked()
				}
				m.mu.Unlock()
			}()
			switch {
			case m.baseB != nil && base != nil:
				m.baseB.EvaluateBatchFromInto(s.freshT, base, s.freshD)
			case m.batch != nil:
				m.batch.EvaluateBatchInto(s.freshT, s.freshD)
			default:
				evalStrideFrom(m.single, s.freshT, base, s.freshD, 0, 1)
			}
			// Publish after evaluating: values enter the table complete or
			// not at all.
			m.mu.Lock()
			for i, h := range s.freshH {
				m.table[h] = s.freshT[i]
				delete(m.pending, h)
			}
			for i, p := range s.ownP {
				p.val, p.ok = s.freshT[i], true
				p.resolveLocked()
			}
			m.mu.Unlock()
			published = true
		}()
		m.misses.Add(int64(len(s.freshD)))
		m.obsMisses.Add(int64(len(s.freshD)))
		for i, o := range s.freshOut {
			out[o] = s.freshT[i]
		}
	}

	// Resolve the waited keys last: in-batch duplicates (owned by us,
	// already published above) and keys concurrent callers were computing.
	// A failed owner means we evaluate the key ourselves.
	for j, p := range s.waitP {
		<-p.done
		if p.ok {
			out[s.waitIdx[j]] = p.val
			m.obsHits.Inc()
		} else {
			out[s.waitIdx[j]] = m.Evaluate(ds[s.waitIdx[j]])
		}
	}

	m.mu.Lock()
	m.maybeEvictLocked()
	m.mu.Unlock()
}

// Evaluations reports how many inner (non-memoised) evaluations were
// performed.
func (m *Memo) Evaluations() int { return int(m.misses.Load()) }

// Evictions reports how many table entries the SetLimit bound has
// discarded.
func (m *Memo) Evictions() int { return int(m.evictions.Load()) }

// Len reports the number of memoised distributions.
func (m *Memo) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.table)
}

// counter wraps an Evaluator with an atomic evaluation count and a batch
// path that forwards to the inner BatchEvaluator when available. The
// stochastic searchers count every call (they do not memoise, preserving
// the serial algorithms' Evaluations exactly); GBS counts through Memo
// instead.
type counter struct {
	single Evaluator
	batch  BatchEvaluator     // non-nil when single supports batching
	baseE  BaseEvaluator      // non-nil when single is base-aware
	baseB  BaseBatchEvaluator // non-nil when single supports base-aware batching
	n      atomic.Int64       //mheta:atomic
}

func newCounter(ev Evaluator) *counter {
	c := &counter{single: ev}
	if be, ok := ev.(BatchEvaluator); ok {
		c.batch = be
	}
	if be, ok := ev.(BaseEvaluator); ok {
		c.baseE = be
	}
	if bb, ok := ev.(BaseBatchEvaluator); ok {
		c.baseB = bb
	}
	return c
}

func (c *counter) eval(d dist.Distribution) float64 {
	c.n.Add(1)
	return c.single.Evaluate(d)
}

// evalFrom is eval naming the candidate's ancestor (same contract as
// evalBatchFrom, without the one-element batch detour — this is the
// annealing chain's per-step path).
func (c *counter) evalFrom(base, d dist.Distribution) float64 {
	c.n.Add(1)
	if c.baseE != nil && base != nil {
		return c.baseE.EvaluateFrom(base, d)
	}
	return c.single.Evaluate(d)
}

func (c *counter) evalBatch(out []float64, ds []dist.Distribution) {
	c.evalBatchFrom(out, nil, ds)
}

// evalBatchFrom is evalBatch naming the batch's common ancestor, which
// base-aware evaluators use to warm their caches (scores are unchanged).
func (c *counter) evalBatchFrom(out []float64, base dist.Distribution, ds []dist.Distribution) {
	c.n.Add(int64(len(ds)))
	if c.baseB != nil && base != nil {
		c.baseB.EvaluateBatchFromInto(out, base, ds)
		return
	}
	if c.batch != nil {
		c.batch.EvaluateBatchInto(out, ds)
		return
	}
	evalStrideFrom(c.single, out, base, ds, 0, 1)
}

func (c *counter) count() int { return int(c.n.Load()) }
