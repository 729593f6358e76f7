package search

import (
	"mheta/internal/dist"
	"mheta/internal/obs"
)

// lightMemo is the single-goroutine counterpart of Memo, for searchers
// that own their memo privately (GBS creates one per Search call and is
// the only caller). It keeps Memo's exact semantics — dedup within the
// batch and against the table, fresh candidates forwarded to the inner
// evaluator at most once each, Evaluations counting exactly the fresh
// evaluations, the same hit/miss observability — but drops the locks and
// the pending protocol, and replaces Go maps with a linear-probing table
// keyed by the full 64-bit dist.Distribution.Hash. On the GBS hot path
// that removes every allocation and most of the per-key overhead the
// concurrent Memo pays for its thread safety. The fresh batch is
// forwarded to the inner evaluator whole, with the batch's ancestor.
//
// lightMemo carries no //mheta:guardedby annotations deliberately:
// every field is owned by the single searcher goroutine that created it
// (GBS never shares its memo), so there is no locking contract for the
// guarded analyzer to enforce — single ownership, not
// synchronisation, is the safety argument here.
type lightMemo struct {
	ev Evaluator

	// Open-addressing table: keys[i] == 0 means empty. A genuine zero
	// hash (possible, if vanishingly rare) is carried out of band in
	// hasZero/zeroVal so no key needs a tombstone.
	keys    []uint64
	vals    []float64
	used    int
	hasZero bool
	zeroVal float64

	misses int

	// Per-batch scratch, reused across calls.
	freshD   []dist.Distribution
	freshH   []uint64
	freshT   []float64
	freshOut []int // out index of each fresh candidate's first occurrence
	dupOut   []int // out indexes of in-batch duplicates...
	dupOf    []int // ...and the fresh index each duplicates

	// Observability (nil when unobserved; see Observe).
	obsHits, obsMisses *obs.Counter
}

// lightMemoMinSize is the initial table size; a power of two whose grow
// threshold (48 entries at 3/4 load) covers a typical GBS working set
// (~tens of distinct candidates), so the common search pays the smallest
// table and an unusually wide one pays a single rehash.
const lightMemoMinSize = 64

func newLightMemo(ev Evaluator) *lightMemo {
	return &lightMemo{
		ev:   ev,
		keys: make([]uint64, lightMemoMinSize),
		vals: make([]float64, lightMemoMinSize),
	}
}

// Observe registers the memo's hit/miss counters on r, under the same
// names as Memo.Observe (there is no eviction counter: lightMemo never
// evicts). A nil registry disables them.
func (m *lightMemo) Observe(r *obs.Registry) {
	m.obsHits = r.Counter("search.memo.hits")
	m.obsMisses = r.Counter("search.memo.misses")
}

// get looks h up in the table.
func (m *lightMemo) get(h uint64) (float64, bool) {
	if h == 0 {
		return m.zeroVal, m.hasZero
	}
	mask := uint64(len(m.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		k := m.keys[i]
		if k == h {
			return m.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
	}
}

// put inserts (h, v), growing at 3/4 load so probes stay short.
func (m *lightMemo) put(h uint64, v float64) {
	if h == 0 {
		m.hasZero, m.zeroVal = true, v
		return
	}
	if (m.used+1)*4 > len(m.keys)*3 {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		k := m.keys[i]
		if k == 0 {
			m.keys[i], m.vals[i] = h, v
			m.used++
			return
		}
		if k == h {
			m.vals[i] = v
			return
		}
	}
}

func (m *lightMemo) grow() {
	oldK, oldV := m.keys, m.vals
	m.keys = make([]uint64, 2*len(oldK))
	m.vals = make([]float64, 2*len(oldV))
	m.used = 0
	for i, k := range oldK {
		if k != 0 {
			m.put(k, oldV[i])
		}
	}
}

// EvaluateBatchFromInto implements Evaluator, forwarding only the
// candidates absent from the table — each distinct distribution at most
// once per batch — to the inner evaluator, with the batch's ancestor.
// Same semantics as Memo.EvaluateBatchFromInto, minus thread safety.
func (m *lightMemo) EvaluateBatchFromInto(out []float64, base dist.Distribution, ds []dist.Distribution) {
	if len(out) != len(ds) {
		panic("search: batch output length mismatch")
	}
	if cap(m.freshD) < len(ds) {
		// Size every scratch slice to the widest batch seen (16 minimum —
		// wider than any batch the in-tree searchers emit) up front, so
		// the per-batch appends below never grow mid-loop.
		w := max(len(ds), 16)
		m.freshD = make([]dist.Distribution, 0, w)
		m.freshH = make([]uint64, 0, w)
		m.freshT = make([]float64, w)
		idx := make([]int, 3*w)
		m.freshOut = idx[0:0:w]
		m.dupOut = idx[w : w : 2*w]
		m.dupOf = idx[2*w : 2*w : 3*w]
	}
	m.freshD = m.freshD[:0]
	m.freshH = m.freshH[:0]
	m.freshOut = m.freshOut[:0]
	m.dupOut = m.dupOut[:0]
	m.dupOf = m.dupOf[:0]
	hits := 0
	for i, d := range ds {
		h := d.Hash()
		if v, ok := m.get(h); ok {
			out[i] = v
			hits++
			continue
		}
		// In-batch duplicate? Batches are small (a few per leg), so a
		// linear scan beats any indexed structure.
		dup := -1
		for j, fh := range m.freshH {
			if fh == h {
				dup = j
				break
			}
		}
		if dup >= 0 {
			m.dupOut = append(m.dupOut, i)
			m.dupOf = append(m.dupOf, dup)
			continue
		}
		m.freshD = append(m.freshD, d)
		m.freshH = append(m.freshH, h)
		m.freshOut = append(m.freshOut, i)
	}

	if n := len(m.freshD); n > 0 {
		if cap(m.freshT) < n {
			m.freshT = make([]float64, n)
		}
		m.freshT = m.freshT[:n]
		m.ev.EvaluateBatchFromInto(m.freshT, base, m.freshD)
		// Publish after evaluating, like Memo: a panicking inner evaluator
		// unwinds before anything enters the table.
		for i, h := range m.freshH {
			m.put(h, m.freshT[i])
			out[m.freshOut[i]] = m.freshT[i]
		}
		m.misses += n
		m.obsMisses.Add(int64(n))
		// Do not retain the caller's distributions past the call.
		for i := range m.freshD {
			m.freshD[i] = nil
		}
	}

	// In-batch duplicates resolve against the batch's own fresh results,
	// and count as hits — exactly as Memo's pending waits do.
	for j, o := range m.dupOut {
		out[o] = m.freshT[m.dupOf[j]]
		hits++
	}
	if hits > 0 {
		m.obsHits.Add(int64(hits))
	}
}

// Evaluations reports how many inner (non-memoised) evaluations were
// performed.
func (m *lightMemo) Evaluations() int { return m.misses }
