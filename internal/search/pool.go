package search

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mheta/internal/dist"
	"mheta/internal/obs"
)

// Pool evaluates candidate batches concurrently on a fixed set of
// workers. Worker w owns its own evaluator (a clone, when NewPool is
// given a clone function), and batch element i is always scored by
// worker i%workers, so results are bit-identical for any worker count —
// parallelism changes wall-clock time, never the search outcome.
//
// A Pool is itself an Evaluator, so every searcher accepts one directly.
// It has no background goroutines and needs no Close; workers are spawned
// per batch, and a single-worker Pool (or a batch of one) evaluates
// inline on worker 0.
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
// runtime.GOMAXPROCS(0). Worker 0 uses ev; every further worker gets
// clone() when clone is non-nil and shares ev otherwise, in which case ev
// must be safe for concurrent use (pure functions are). Single-goroutine
// evaluators pass their CloneEvaluator method value, e.g.
// NewPool(dme, n, dme.CloneEvaluator).
func NewPool(ev Evaluator, n int, clone func() Evaluator) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	evs := make([]Evaluator, n)
	evs[0] = ev
	for i := 1; i < n; i++ {
		if clone != nil {
			evs[i] = clone()
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

// EvaluateBatchFromInto implements Evaluator: batch element i is scored
// by worker i%workers, each worker striding through the batch on its own
// evaluator one candidate at a time (a batch of one over the caller's
// buffers), with the batch's ancestor handed to every worker (a delta
// evaluator warms the shared busy-term table for it once).
func (p *Pool) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	if len(out) != len(ds) {
		panic("search: batch output length mismatch")
	}
	if len(ds) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w := min(len(p.evs), len(ds))
	if p.obsWorker != nil {
		p.obsBatches.Inc()
		p.obsEvals.Add(int64(len(ds)))
		for k := 0; k < w; k++ {
			p.obsWorker[k].Add(int64(strideLen(len(ds), k, w)))
		}
	}
	if w == 1 {
		p.evs[0].EvaluateBatchFromInto(out, base, ds)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		//mheta:lifecycle waitgroup
		go func(k int) {
			defer wg.Done()
			ev := p.evs[k]
			for i := k; i < len(ds); i += w {
				ev.EvaluateBatchFromInto(out[i:i+1], base, ds[i:i+1])
			}
		}(k)
	}
	wg.Wait()
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
// evaluation themselves. Concurrent batch calls run concurrently (each
// takes its own scratch from a free list) and block on one another only
// for a key the other is computing: overlapping keys resolve through the
// pending protocol, so no caller convoys behind an unrelated batch.
type Memo struct {
	mu      sync.RWMutex
	table   map[uint64]float64      //mheta:guardedby mu
	pending map[uint64]*memoPending //mheta:guardedby mu
	ev      Evaluator
	misses  atomic.Int64 //mheta:atomic

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

// NewMemo wraps ev with a fresh memo table.
func NewMemo(ev Evaluator) *Memo {
	return &Memo{
		// Presized for a typical search's working set so the hot loop
		// never pays for map growth.
		table:   make(map[uint64]float64, 128),
		pending: make(map[uint64]*memoPending, 16),
		ev:      ev,
	}
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

// EvaluateBatchInto is EvaluateBatchFromInto with no ancestry.
func (m *Memo) EvaluateBatchInto(out []float64, ds []dist.Distribution) {
	m.EvaluateBatchFromInto(out, nil, ds)
}

// EvaluateBatchFromInto implements Evaluator. Only candidates absent
// from the table are forwarded to the inner evaluator — each distinct
// distribution at most once per batch, with the batch's ancestor — and
// the inner evaluation runs with no memo lock held, so concurrent callers
// on a shared memo are delayed only if they ask for a key this batch is
// computing.
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
			m.ev.EvaluateBatchFromInto(s.freshT, base, s.freshD)
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
	// A failed owner means we retry the key ourselves, as a batch of one.
	for j, p := range s.waitP {
		i := s.waitIdx[j]
		<-p.done
		if p.ok {
			out[i] = p.val
			m.obsHits.Inc()
		} else {
			m.EvaluateBatchFromInto(out[i:i+1], base, ds[i:i+1])
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

// counter wraps an Evaluator with an atomic evaluation count. The
// stochastic searchers count every candidate (they do not memoise,
// preserving the serial algorithms' Evaluations exactly); GBS counts
// through lightMemo instead.
type counter struct {
	ev Evaluator
	n  atomic.Int64 //mheta:atomic
}

// EvaluateBatchFromInto implements Evaluator.
func (c *counter) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	c.n.Add(int64(len(ds)))
	c.ev.EvaluateBatchFromInto(out, base, ds)
}

func (c *counter) count() int { return int(c.n.Load()) }
