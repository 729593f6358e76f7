package search

import (
	"sync"
	"sync/atomic"

	"mheta/internal/dist"
	"mheta/internal/obs"
)

// Memo is a thread-safe memoising evaluator keyed by the cheap 64-bit
// dist.Distribution.Hash. It replaces the allocating String()-keyed memo
// the serial GBS carried: hits cost two map operations and zero
// allocations. Batch evaluation deduplicates within the batch and against
// the table, forwards only the fresh candidates to the inner evaluator,
// and counts exactly the fresh evaluations.
//
// The inner evaluator need not be safe for concurrent use: calls into it
// serialise on evalMu, so a single-goroutine evaluator (a
// DeltaModelEvaluator over its model) can sit under a Memo shared by
// concurrent callers. evalMu is held around the inner call only, never
// while a caller waits on another's pending key, so table hits never
// queue behind an evaluation.
//
// Publication is strictly after evaluation: a key being scored is held as
// a pending entry (never a placeholder value in the table), so a
// panicking inner evaluator unwinds without poisoning the table — the
// pending entries are rolled back and concurrent waiters retry the
// evaluation themselves. Concurrent batch calls classify and publish
// concurrently (each takes its own scratch from a free list) and block on
// one another only for a key the other is computing or for their turn on
// the inner evaluator.
type Memo struct {
	mu      sync.RWMutex
	table   map[uint64]float64      //mheta:guardedby mu
	pending map[uint64]*memoPending //mheta:guardedby mu

	// evalMu serialises calls into ev (see the type comment).
	evalMu sync.Mutex
	ev     Evaluator //mheta:guardedby evalMu

	misses atomic.Int64

	// limit, when positive, bounds the table: the epoch after a publish
	// grows past limit entries, the whole table is cleared (deterministic
	// for a deterministic batch sequence — eviction depends only on
	// insertion history, never on goroutine timing).
	limit     int //mheta:guardedby mu
	evictions atomic.Int64

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
//
//mheta:locks requires mu
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
// the inner evaluation holds evalMu but no table lock, so concurrent
// callers' hits proceed while it runs.
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
			m.evaluateInner(s.freshT, base, s.freshD)
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

// evaluateInner forwards a fresh batch to the inner evaluator, one
// caller at a time.
func (m *Memo) evaluateInner(out []float64, base dist.Distribution, ds []dist.Distribution) {
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	m.ev.EvaluateBatchFromInto(out, base, ds)
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
