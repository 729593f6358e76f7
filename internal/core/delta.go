package core

import (
	"math"
	"sync"
	"sync/atomic"

	"mheta/internal/program"
)

// Incremental (delta) model evaluation.
//
// A candidate distribution differs from its search neighbour in only a
// few ranks (a mutation moves elements between two nodes; a GBS probe
// slides along a two-anchor leg). The expensive part of Predict — the
// residency plan and the per-section busy terms — depends only on the
// node's *own* block count, never on the other nodes or on the clocks, so
// those terms can be cached per (section, node, width) and replayed bit
// for bit. Only the cheap clock chaining (which genuinely couples the
// nodes) runs per candidate.
//
// The single cross-node coupling inside the busy terms is the shared-disk
// contention factor kShared, which is >1 only when SharedDisk is set and
// more than one node streams. The cache therefore stores terms computed
// at kShared == 1 and falls back to the full path the moment a candidate
// would stream on more than one shared-disk node. Weighted iterations
// (IterWeights) rescale the compute part of every busy term per
// iteration, which a width-keyed cache cannot represent, so they also
// take the full path. Fallbacks are correctness-neutral: both paths feed
// the same chain() implementation, so results are bit-identical either
// way (see DESIGN.md §5.12).

// deltaMaxBytes caps the busy-term cache footprint; parameter sets whose
// sections × nodes × widths table would exceed it run uncached.
const deltaMaxBytes = 64 << 20 //mheta:units bytes

// deltaPageShift sizes the cache pages: each page covers 1<<deltaPageShift
// consecutive widths of one node. A search visits a narrow band of widths
// around the balanced point, so paging keeps the table's allocation
// proportional to the widths actually seen rather than the problem size.
const (
	deltaPageShift = 6
	deltaPageMask  = 1<<deltaPageShift - 1
)

// busyUnfilled is the bit pattern of an unfilled table entry
// (math.Float64bits(math.NaN())).
const busyUnfilled uint64 = 0x7ff8000000000001

// busyTable is one instrumented model's busy-term cache, shared by the
// model and every clone of it: NewModel creates it, Clone shares the
// pointer, and every DeltaEvaluator over any of those models reads and
// fills it, so an engine's /predict memo, its /search requests and their
// pool workers all replay each other's terms. It is safe for concurrent use
// and lock-free once built (DESIGN.md §5.12):
//
//   - the per-node page tables are allocated once, under the table's
//     sync.Once, by the first NewDeltaEvaluator over any model sharing it;
//   - each page is published once, by a CompareAndSwap on its slot, with
//     every entry already busyUnfilled;
//   - a fill stores sections 1..S-1 first and the si == 0 presence slot
//     last, so a reader that sees slot 0 filled sees the whole column.
//
// Racing fills of the same (p, w) compute identical bits — the terms are
// a pure function of (section, node, width) at kShared == 1 — so the
// losing store rewrites the winner's values with themselves.
type busyTable struct {
	once sync.Once
	// The fields below are written only inside once.Do and read-only
	// after it.
	//
	// maxW is the largest representable block count (the problem size):
	// distributions partition ΣBaseDist elements, so no rank exceeds it.
	maxW int //mheta:units elems
	// pages[p][w>>deltaPageShift] is the page holding rank p's terms for
	// the page's widths, nil until first published; pages itself is nil
	// when the cache is disabled. Within a page, entry
	// (w&deltaPageMask)*S+si holds Float64bits of sectionBusy(si, p, w)
	// at kShared == 1, or busyUnfilled; keeping one node's sections
	// contiguous means a candidate replay reads S adjacent entries
	// instead of S scattered rows.
	pages [][]atomic.Pointer[busyPage]
}

// busyPage is one page of a node's busy terms: 1<<deltaPageShift widths ×
// S sections of Float64bits values.
type busyPage []atomic.Uint64

// build sizes the table for m's parameters. The footprint bound is per
// master model: every clone shares the one table.
func (t *busyTable) build(m *Model) {
	for _, w := range m.p.BaseDist {
		t.maxW += w
	}
	n, S := m.p.Nodes, len(m.p.Sections)
	footprint := int64(S) * int64(n) * (int64(t.maxW) + 1) * 8 //mheta:units bytes
	if t.maxW <= 0 || S == 0 || footprint > deltaMaxBytes {
		return
	}
	t.pages = make([][]atomic.Pointer[busyPage], n)
	for p := range t.pages {
		t.pages[p] = make([]atomic.Pointer[busyPage], t.maxW>>deltaPageShift+1)
	}
}

// DeltaEvaluator evaluates candidate distributions for one Model by
// replaying busy terms from the model's shared busyTable through the
// model's clock chaining. Like the Model, it is not safe for concurrent
// use; give each goroutine its own Model.Clone, whose evaluator shares
// the table but owns the replay columns below.
type DeltaEvaluator struct {
	m *Model
	// maxW and pages alias the shared table's (read-only after build);
	// pages is nil when the cache is disabled.
	maxW  int //mheta:units elems
	pages [][]atomic.Pointer[busyPage]
	// streamBit[p][w] caches whether rank p streams at width w (0 unknown,
	// 1 resident, 2 streaming). Allocated only under SharedDisk, where the
	// census gates the kShared fallback before any busy lookup.
	streamBit [][]int8
	// busy is the evaluator's private replay table, same shape as the
	// model's busy2D. Owning it (nothing else writes it — full-path
	// fallbacks write m.busy2D) is what makes the lastD short-circuit
	// sound: busy[si][p] stays valid for as long as rank p's width is
	// unchanged, because the terms depend only on (si, p, width) at
	// kShared == 1.
	busy [][]float64 //mheta:units seconds
	// b0, b1 alias busy[0]/busy[1] when the program has exactly two
	// sections (the iterative stencil+reduction shape of the paper's
	// benchmarks), hoisting the replay loop's column slices out of the
	// per-candidate path; nil otherwise.
	b0, b1 []float64 //mheta:units seconds
	// lastD[p] is the width busy currently holds for rank p, or -1 when
	// that column has never been written. Successive search candidates
	// differ in a handful of ranks, so the per-eval replay touches only
	// the changed columns.
	lastD []int //mheta:units elems
	// fused marks the two-section [nearest-neighbour, all-reduce]
	// eight-rank program shape, for which Evaluate chains both model
	// iterations through the register-resident jacobi8 kernel (clocks
	// never touch memory) whenever every rank is active. Fallbacks — any
	// zero width — run the generic chain path; both produce bit-identical
	// results.
	fused bool
	stats DeltaStats
}

// DeltaStats counts one evaluator's cache traffic. Plain counters: the
// evaluator has the same single-goroutine contract as the Model it wraps,
// so each clone counts its own lookups even though the table is shared.
type DeltaStats struct {
	// Hits and Misses count per-node busy-row lookups on the delta path;
	// a miss is a lookup this evaluator had to fill.
	Hits   int64
	Misses int64
	// FullEvals counts candidates that fell back to the full path.
	FullEvals int64
}

// NewDeltaEvaluator builds a delta evaluator for m over m's shared
// busy-term table. The cache is disabled (every Evaluate falls back to
// the full path) when the table would exceed deltaMaxBytes or the
// parameter set has no distributed work.
func NewDeltaEvaluator(m *Model) *DeltaEvaluator {
	t := m.terms
	t.once.Do(func() { t.build(m) })
	de := &DeltaEvaluator{m: m, maxW: t.maxW, pages: t.pages}
	if de.pages == nil { // cache disabled
		return de
	}
	n, S := m.p.Nodes, len(m.p.Sections)
	de.busy = makeBusy2D(S, n)
	de.lastD = make([]int, n)
	for p := range de.lastD {
		de.lastD[p] = -1
	}
	if m.p.SharedDisk {
		de.streamBit = make([][]int8, n)
	}
	if S == 2 {
		de.b0, de.b1 = de.busy[0][:n], de.busy[1][:n]
	}
	de.fused = n == 8 && S == 2 &&
		m.p.Sections[0].Comm == program.CommNearestNeighbor &&
		m.p.Sections[1].Comm == program.CommReduction
	return de
}

// Model returns the model the evaluator wraps.
func (de *DeltaEvaluator) Model() *Model { return de.m }

// Stats returns the cache counters so far.
func (de *DeltaEvaluator) Stats() DeltaStats { return de.stats }

// Evaluate predicts the total run time for distribution d, replaying
// cached busy terms where possible. The result is bit-identical to
// de.Model().Predict(d).Total — both paths share the model's chain() —
// and the boolean reports whether the delta path was taken (false means
// a full evaluation ran, counted in Stats().FullEvals).
//
//mheta:units elems d
//mheta:units seconds return
func (de *DeltaEvaluator) Evaluate(d []int) (float64, bool) {
	m := de.m
	n := m.p.Nodes
	if de.pages == nil || len(d) != n || m.p.IterWeights != nil {
		de.stats.FullEvals++
		return m.PredictTotal(d), false
	}
	if m.p.SharedDisk {
		// Census first: cached busy terms assume kShared == 1, which
		// holds unless more than one node streams through the shared
		// disk. Widths are range-checked here; the private-disk path
		// checks inside the replay loop instead.
		streaming := 0
		for p, w := range d {
			if w < 0 || w > de.maxW {
				de.stats.FullEvals++
				return m.PredictTotal(d), false
			}
			bits := de.streamBit[p]
			if bits == nil {
				bits = make([]int8, de.maxW+1)
				de.streamBit[p] = bits
			}
			b := bits[w]
			if b == 0 {
				b = 1
				if m.residencyNode(p, w) {
					b = 2
				}
				bits[w] = b
			}
			if b == 2 {
				streaming++
			}
		}
		if streaming > 1 {
			de.stats.FullEvals++
			return m.PredictTotal(d), false
		}
	}
	// Busy terms are cached at kShared == 1; make the on-miss
	// sectionBusy calls see the same factor.
	m.kShared = 1
	S := len(m.p.Sections)
	pages := de.pages[:n] // reslices bound the replay loop's checks once
	lastD := de.lastD[:n]
	d = d[:n]
	// Two-section programs replay through the column slices hoisted at
	// construction (de.b0/de.b1), sparing the inner per-section loop its
	// slice-header loads and bounds checks.
	b0, b1 := de.b0, de.b1
	hits, misses := 0, 0
	allPos := true
	for p := 0; p < n; p++ {
		w := d[p]
		if w <= 0 {
			allPos = false
		}
		if lastD[p] == w { // busy column p already holds width w's terms
			hits++
			continue
		}
		if uint(w) > uint(de.maxW) { // negative or beyond the problem size
			// Columns updated so far stay valid (lastD tracks them), so
			// bailing mid-loop leaves the cache consistent.
			de.stats.Hits += int64(hits)
			de.stats.Misses += int64(misses)
			de.stats.FullEvals++
			return m.PredictTotal(d), false
		}
		base := (w & deltaPageMask) * S
		var r busyPage
		v0 := busyUnfilled
		if pg := pages[p][w>>deltaPageShift].Load(); pg != nil {
			r = (*pg)[base : base+S]
			v0 = r[0].Load()
		}
		if v0 == busyUnfilled {
			misses++
			r = (*de.fillNode(p, w))[base : base+S]
			v0 = r[0].Load()
		} else {
			hits++
		}
		if b0 != nil {
			b0[p] = math.Float64frombits(v0)
			b1[p] = math.Float64frombits(r[1].Load())
		} else {
			for si := range r {
				de.busy[si][p] = math.Float64frombits(r[si].Load())
			}
		}
		lastD[p] = w
	}
	de.stats.Hits += int64(hits)
	de.stats.Misses += int64(misses)
	if de.fused && allPos {
		// Every rank active on the fused shape: both iterations chain
		// through registers, skipping the clock zeroing and the
		// active-set recompute entirely.
		t1, t2 := jacobi8(b0, b1, &m.secNet[0], &m.secNet[1]) //mheta:units seconds
		return t1 + float64(m.p.Iterations-1)*(t2-t1), true
	}
	clock := m.clock
	for p := range clock {
		clock[p] = 0
	}
	m.computeActive(d)
	t1 := m.chain(de.busy, d, nil) //mheta:units seconds
	t2 := m.chain(de.busy, d, nil) //mheta:units seconds
	return t1 + float64(m.p.Iterations-1)*(t2-t1), true
}

// Warm primes the shared table for d's widths without chaining (used by
// search front ends to pre-fill a batch's common ancestor). Purely an
// optimisation: it never changes what Evaluate returns.
//
//mheta:units elems d
func (de *DeltaEvaluator) Warm(d []int) {
	if de.pages == nil || len(d) != de.m.p.Nodes {
		return
	}
	de.m.kShared = 1
	S := len(de.m.p.Sections)
	for p, w := range d {
		if w < 0 || w > de.maxW {
			continue
		}
		pg := de.pages[p][w>>deltaPageShift].Load()
		if pg == nil || (*pg)[(w&deltaPageMask)*S].Load() == busyUnfilled {
			de.stats.Misses++
			de.fillNode(p, w)
		}
	}
}

// fillNode plans rank p's residency at width w, stores every section's
// busy term for (p, w) into the shared table and returns the page holding
// them, publishing the page first if no clone has yet. The si == 0 slot
// is stored last: it decides presence for the whole column, so readers
// never see it filled ahead of the other sections.
//
//mheta:units elems w
func (de *DeltaEvaluator) fillNode(p, w int) *busyPage {
	m := de.m
	S := len(m.p.Sections)
	slot := &de.pages[p][w>>deltaPageShift]
	pg := slot.Load()
	if pg == nil {
		fresh := make(busyPage, (deltaPageMask+1)*S)
		for i := range fresh {
			fresh[i].Store(busyUnfilled)
		}
		if slot.CompareAndSwap(nil, &fresh) {
			pg = &fresh
		} else {
			pg = slot.Load() // another clone published the page first
		}
	}
	m.residencyNode(p, w)
	r := (*pg)[(w&deltaPageMask)*S:]
	v0 := m.sectionBusy(0, &m.p.Sections[0], p, w, 1)
	for si := 1; si < S; si++ {
		r[si].Store(math.Float64bits(m.sectionBusy(si, &m.p.Sections[si], p, w, 1)))
	}
	r[0].Store(math.Float64bits(v0))
	return pg
}
