package core

import (
	"fmt"

	"mheta/internal/memsim"
	"mheta/internal/program"
)

// Model is a compiled MHETA instance: validated parameters plus
// preallocated scratch space so Predict can run inside tight search loops
// without allocating (the paper evaluates thousands of candidate
// distributions per search).
type Model struct {
	//lint:shared params are validated once and never written after NewModel; clones read them concurrently.
	p Params
	// stageVar[si][sti] is the index into p.DistVars of the stage's
	// streamed variable, or -1 — compiled once so Predict does no string
	// lookups.
	//lint:shared compiled once in NewModel, read-only thereafter; clones share the table.
	stageVar [][]int
	// secNet[si] holds section si's network costs, evaluated once from the
	// parameter set so the per-candidate chaining does no cost arithmetic.
	//lint:shared compiled once in NewModel, read-only thereafter; clones share the table.
	secNet []secNet
	// reduceEdges and bcastEdges are the binomial reduce/broadcast tree
	// schedules for Nodes ranks, compiled once; replaying them edge by edge
	// reproduces the executor's loop order exactly (see reduceTree).
	//lint:shared compiled once in NewModel, read-only thereafter; clones share the schedule.
	reduceEdges []treeEdge
	//lint:shared compiled once in NewModel, read-only thereafter; clones share the schedule.
	bcastEdges []treeEdge
	// allredEdges is reduceEdges followed by bcastEdges in one slice, so
	// the all-reduce replay — every section reduction in the bench
	// workloads — runs as a single edge loop.
	//lint:shared compiled once in NewModel, read-only thereafter; clones share the schedule.
	allredEdges []treeEdge
	// scratch, reused across Predict calls (a Model is not safe for
	// concurrent use; clone one per goroutine with Clone).
	clock []float64 //mheta:units seconds
	// busy2D[si][p] is node p's busy term for section si under the
	// distribution being evaluated (filled by fillBusy or the delta cache).
	busy2D   [][]float64 //mheta:units seconds
	sendDone []float64   //mheta:units seconds
	prevTile []float64   //mheta:units seconds
	curTile  []float64   //mheta:units seconds
	// active is the current candidate's active-rank view (refreshed by
	// computeActive): either allRanks (all ranks working, read-only) or
	// activeBuf (the model-owned scratch holding a partial set).
	active    []int
	activeBuf []int
	// allRanks is the identity permutation [0..Nodes), compiled once and
	// never written; computeActive aliases it for all-active candidates.
	//lint:shared compiled once in NewModel, read-only thereafter; clones share the table.
	allRanks []int
	layouts  [][]memsim.Layout // [node][distVar]
	// kShared is the predicted shared-disk contention factor for the
	// distribution under evaluation (1 for private disks), refreshed by
	// residency().
	kShared float64 //mheta:units ratio
	// terms is the delta evaluators' busy-term cache, created by NewModel
	// and shared by every clone (see busyTable).
	//lint:shared lock-free cache of pure (section, node, width) terms; sharing it is what keeps clones from starting cold (DESIGN.md §5.12).
	terms *busyTable
	// delta is the model's incremental evaluator, created lazily by
	// Delta(). Its replay columns and stats are per-instance state like
	// the scratch above; the terms it replays come from the shared table.
	delta *DeltaEvaluator
}

// secNet is one section's precomputed message costs: send overhead,
// receive overhead and in-flight time for the boundary/pipeline payload
// (MsgBytes) and the reduction payload (ReduceBytes).
type secNet struct {
	msgSend float64 //mheta:units seconds
	msgRecv float64 //mheta:units seconds
	msgWire float64 //mheta:units seconds
	redSend float64 //mheta:units seconds
	redRecv float64 //mheta:units seconds
	redWire float64 //mheta:units seconds
}

// treeEdge is one reduce/broadcast tree transfer, from sender to receiver.
type treeEdge struct {
	from, to int32
}

// NewModel validates params and compiles them into a Model.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Nodes
	varIdx := make(map[string]int, len(p.DistVars))
	for i, v := range p.DistVars {
		varIdx[v.Name] = i
	}
	stageVar := make([][]int, len(p.Sections))
	sn := make([]secNet, len(p.Sections))
	for si, s := range p.Sections {
		stageVar[si] = make([]int, len(s.Stages))
		for sti, st := range s.Stages {
			stageVar[si][sti] = -1
			if st.StreamVar != "" {
				idx, ok := varIdx[st.StreamVar]
				if !ok {
					return nil, fmt.Errorf("core: section %d stage %d streams unknown variable %q", si, sti, st.StreamVar)
				}
				stageVar[si][sti] = idx
			}
		}
		sn[si] = secNet{
			msgSend: p.Net.SendCost(s.MsgBytes),
			msgRecv: p.Net.RecvCost(s.MsgBytes),
			msgWire: p.Net.Transfer(s.MsgBytes),
			redSend: p.Net.SendCost(s.ReduceBytes),
			redRecv: p.Net.RecvCost(s.ReduceBytes),
			redWire: p.Net.Transfer(s.ReduceBytes),
		}
	}
	reduceEdges, bcastEdges := compileTreeEdges(n)
	allredEdges := make([]treeEdge, 0, len(reduceEdges)+len(bcastEdges))
	allredEdges = append(append(allredEdges, reduceEdges...), bcastEdges...)
	allRanks := make([]int, n)
	for p := range allRanks {
		allRanks[p] = p
	}
	return &Model{
		p:           p,
		stageVar:    stageVar,
		secNet:      sn,
		reduceEdges: reduceEdges,
		bcastEdges:  bcastEdges,
		allredEdges: allredEdges,
		clock:       make([]float64, n),
		busy2D:      makeBusy2D(len(p.Sections), n),
		sendDone:    make([]float64, n),
		prevTile:    make([]float64, n),
		curTile:     make([]float64, n),
		activeBuf:   make([]int, 0, n),
		allRanks:    allRanks,
		layouts:     makeLayouts(n, len(p.DistVars)),
		terms:       new(busyTable),
	}, nil
}

func makeBusy2D(sections, n int) [][]float64 {
	b := make([][]float64, sections)
	for si := range b {
		b[si] = make([]float64, n)
	}
	return b
}

func makeLayouts(n, vars int) [][]memsim.Layout {
	l := make([][]memsim.Layout, n)
	for i := range l {
		l[i] = make([]memsim.Layout, vars)
	}
	return l
}

// compileTreeEdges builds the binomial reduce and broadcast schedules for
// n ranks. Reduce edges are grouped by ascending level; within a level the
// sender sets are pairwise distinct from the receiver sets and each
// receiver takes exactly one message, so replaying the per-edge kernel in
// receiver order is exactly the executor's two-pass loop. Broadcast edges
// are listed in the executor's literal nested order (parent ascending,
// child mask descending), which a sequential replay preserves.
func compileTreeEdges(n int) (reduce, bcast []treeEdge) {
	for mask := 1; mask < n; mask <<= 1 {
		for p := 0; p < n; p++ {
			if p&(2*mask-1) == 0 && p+mask < n {
				reduce = append(reduce, treeEdge{from: int32(p + mask), to: int32(p)})
			}
		}
	}
	highest := 1
	for highest<<1 < n {
		highest <<= 1
	}
	for p := 0; p < n; p++ { // parents always precede children numerically
		start := highest
		if p != 0 {
			start = lowbit(p) >> 1
		}
		for c := start; c >= 1; c >>= 1 {
			if child := p + c; child < n {
				bcast = append(bcast, treeEdge{from: int32(p), to: int32(child)})
			}
		}
	}
	return reduce, bcast
}

// MustModel is NewModel for parameters known to be valid; it panics on
// error.
func MustModel(p Params) *Model {
	m, err := NewModel(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the model's parameter set.
func (m *Model) Params() Params { return m.p }

// Clone returns an independent Model sharing the (immutable) parameters,
// for concurrent searches: clone one Model per goroutine. The params, the
// compiled stage-variable table, the section network costs and the tree
// schedules are shared read-only; only the per-evaluation scratch is
// duplicated, so cloning skips re-validation and costs a handful of small
// allocations instead of a full NewModel. The clone shares the model's
// busy-term table, so its delta evaluator replays every term any sibling
// has filled; only the evaluator's replay columns and stats are its own.
func (m *Model) Clone() *Model {
	n := m.p.Nodes
	return &Model{
		p:           m.p,
		stageVar:    m.stageVar,
		secNet:      m.secNet,
		reduceEdges: m.reduceEdges,
		bcastEdges:  m.bcastEdges,
		allredEdges: m.allredEdges,
		clock:       make([]float64, n),
		busy2D:      makeBusy2D(len(m.p.Sections), n),
		sendDone:    make([]float64, n),
		prevTile:    make([]float64, n),
		curTile:     make([]float64, n),
		active:      nil, // refreshed by computeActive before any read
		activeBuf:   make([]int, 0, n),
		allRanks:    m.allRanks,
		layouts:     makeLayouts(m.p.Nodes, len(m.p.DistVars)),
		terms:       m.terms,
		delta:       nil, // created by Delta() over the shared terms
	}
}

// Delta returns the model's incremental evaluator, creating it on first
// use. Like the Model itself it is not safe for concurrent use; clones
// made with Clone get their own evaluator over the shared busy-term
// table, so a clone's first Delta() already sees its siblings' terms.
func (m *Model) Delta() *DeltaEvaluator {
	if m.delta == nil {
		m.delta = NewDeltaEvaluator(m)
	}
	return m.delta
}

// Prediction is the output of one model evaluation.
type Prediction struct {
	// PerIteration is the predicted wall time of one steady-state
	// iteration. The recurrences evaluate TA = Σ TΠ (§4.2.3) for two
	// consecutive iterations without resetting the per-node clocks; the
	// difference of the two makespans is the steady-state period, which
	// accounts for the skew the ending collective leaves between nodes
	// (the root exits a reduction tree earlier than the leaves and
	// starts the next iteration's critical path sooner).
	PerIteration float64 //mheta:units seconds
	// NodeTimes[p] is node p's per-iteration finish time TA(p).
	NodeTimes []float64 //mheta:units seconds
	// Total is PerIteration × Iterations.
	Total float64 //mheta:units seconds
	// SectionTimes[s][p] is node p's finish time after section s,
	// cumulative within the iteration (diagnostic; nil unless requested
	// via PredictDetailed).
	SectionTimes [][]float64 //mheta:units seconds
}

// Predict evaluates the model for the candidate distribution d (elements
// per node) and returns the prediction. This is the hot path: pure
// arithmetic over the parameter set, no emulation.
//
//mheta:units elems d
func (m *Model) Predict(d []int) Prediction {
	return m.predict(d, false)
}

// PredictDetailed is Predict plus per-section cumulative times for
// diagnostics and tests.
//
//mheta:units elems d
func (m *Model) PredictDetailed(d []int) Prediction {
	return m.predict(d, true)
}

// PredictTotal is Predict reduced to the total: the same arithmetic in the
// same order, skipping the NodeTimes capture so search loops evaluate
// candidates without allocating. PredictTotal(d) == Predict(d).Total
// bit for bit.
//
//mheta:units elems d
//mheta:units seconds return
func (m *Model) PredictTotal(d []int) float64 {
	n := m.p.Nodes
	if len(d) != n {
		panic(fmt.Sprintf("core: distribution has %d entries, want %d", len(d), n))
	}
	m.residency(d)
	m.computeActive(d)
	for p := 0; p < n; p++ {
		m.clock[p] = 0
	}
	if m.p.IterWeights == nil {
		m.fillBusy(d, 1)
		t1 := m.chain(m.busy2D, d, nil) //mheta:units seconds
		t2 := m.chain(m.busy2D, d, nil) //mheta:units seconds
		return t1 + float64(m.p.Iterations-1)*(t2-t1)
	}
	w0 := m.p.IterWeights[0]
	var last float64 //mheta:units seconds
	for i := 0; i < m.p.Iterations; i++ {
		m.fillBusy(d, m.p.IterWeights[i]/w0)
		last = m.chain(m.busy2D, d, nil)
	}
	return last
}

//mheta:units elems d
func (m *Model) predict(d []int, detailed bool) Prediction {
	n := m.p.Nodes
	if len(d) != n {
		panic(fmt.Sprintf("core: distribution has %d entries, want %d", len(d), n))
	}
	m.residency(d)
	m.computeActive(d)
	for p := 0; p < n; p++ {
		m.clock[p] = 0
	}
	var sectionTimes [][]float64 //mheta:units seconds
	capture := (*[][]float64)(nil)
	if detailed {
		capture = &sectionTimes
	}
	nodeTimes := make([]float64, n) //mheta:units seconds

	pred := Prediction{}
	if m.p.IterWeights == nil {
		// Uniform iterations: evaluate two consecutive iterations without
		// resetting the clocks. Iteration 1's makespan is the cold-start
		// time; the difference to iteration 2's makespan is the
		// steady-state period. Because every application's iteration ends
		// in a collective, the inter-node clock offsets reach their fixed
		// point after one iteration, so two are sufficient. The busy terms
		// carry no clock state, so one fill serves both iterations.
		m.fillBusy(d, 1)
		t1 := m.chain(m.busy2D, d, capture) //mheta:units seconds
		copy(nodeTimes, m.clock)
		t2 := m.chain(m.busy2D, d, nil) //mheta:units seconds
		pred.Total = t1 + float64(m.p.Iterations-1)*(t2-t1)
	} else {
		// Nonuniform iterations (§3.1): evaluate every iteration with its
		// computation weight relative to the instrumented iteration
		// (index 0).
		w0 := m.p.IterWeights[0]
		var last float64 //mheta:units seconds
		for i := 0; i < m.p.Iterations; i++ {
			m.fillBusy(d, m.p.IterWeights[i]/w0)
			if i == 0 {
				last = m.chain(m.busy2D, d, capture)
				copy(nodeTimes, m.clock)
			} else {
				last = m.chain(m.busy2D, d, nil)
			}
		}
		pred.Total = last
	}
	pred.NodeTimes = nodeTimes
	pred.SectionTimes = sectionTimes
	pred.PerIteration = pred.Total / float64(m.p.Iterations)
	return pred
}

// fillBusy computes every section's per-node busy term (Tp of §4.2.1 —
// all stages, all tiles) into busy2D. Busy terms depend only on the
// node's own block count, the layouts residency planned for it, and the
// compute scale — never on the clocks — so they can be computed up front
// and, by the delta evaluator, cached per (section, node, width).
//
//mheta:units elems d
//mheta:units ratio scale
func (m *Model) fillBusy(d []int, scale float64) {
	for si := range m.p.Sections {
		s := &m.p.Sections[si]
		row := m.busy2D[si]
		for p := range d {
			row[p] = m.sectionBusy(si, s, p, d[p], scale)
		}
	}
}

// chain advances the per-node clocks through one iteration's sections
// using the busy terms in busy2D (the full path passes m.busy2D, the
// delta evaluator its privately owned replay table — same values either
// way) and the active set already in m.active (callers run computeActive
// once per candidate — the set depends only on d), and returns the
// iteration's makespan. This is the single chaining implementation shared
// by the full path (Predict/PredictTotal) and the delta evaluator, which
// is what makes delta results bit-identical by construction. When
// sectionTimes is non-nil, a cumulative per-node snapshot is appended
// after each section.
//
//mheta:units seconds busy2D
//mheta:units elems d
//mheta:units seconds return
func (m *Model) chain(busy2D [][]float64, d []int, sectionTimes *[][]float64) float64 {
	n := m.p.Nodes
	clock := m.clock[:n] // reslice so the per-node loops bounds-check once
	sections := m.p.Sections
	for si := range sections {
		s := &sections[si]
		busy := busy2D[si][:n]
		sn := &m.secNet[si]
		switch s.Comm {
		case program.CommNone:
			for p := 0; p < n; p++ {
				clock[p] += busy[p]
			}
		case program.CommNearestNeighbor:
			m.nearestNeighbor(sn, busy, d)
		case program.CommPipeline:
			m.pipeline(sn, s.Tiles, busy, d)
		case program.CommReduction:
			for p := 0; p < n; p++ {
				clock[p] += busy[p]
			}
			m.reduceTree(sn, true)
		default:
			panic(fmt.Sprintf("core: unsupported comm pattern %v", s.Comm))
		}
		if sectionTimes != nil {
			row := make([]float64, n)
			copy(row, clock)
			*sectionTimes = append(*sectionTimes, row)
		}
	}
	mk := 0.0
	for p := 0; p < n; p++ {
		if clock[p] > mk {
			mk = clock[p]
		}
	}
	return mk
}

// residency runs MHETA's (deliberately simple, §5.4) in-core heuristic
// for every node under distribution d, filling m.layouts.
//
//mheta:units elems d
func (m *Model) residency(d []int) {
	m.kShared = 1
	streaming := 0
	for p := 0; p < m.p.Nodes; p++ {
		if m.residencyNode(p, d[p]) {
			streaming++
		}
	}
	if m.p.SharedDisk && streaming > 1 {
		m.kShared = float64(streaming)
	}
}

// residencyNode plans node p's per-variable layouts for block count w and
// reports whether the node streams (some variable out of core and w > 0).
// It never touches kShared — the caller owns the cross-node contention
// census.
//
//mheta:units elems w
func (m *Model) residencyNode(p, w int) bool {
	budget := memsim.Budget{Capacity: m.p.MemoryBytes[p]}
	ooc := false
	for vi, v := range m.p.DistVars {
		m.layouts[p][vi] = memsim.PlanVar(budget, int64(w)*v.ElemBytes, v.ElemBytes)
		if !m.layouts[p][vi].InCore {
			ooc = true
		}
	}
	return ooc && w > 0
}

// sectionBusy returns node p's total computation + I/O time for a section
// (all stages, all tiles) given its assigned work w.
//
//mheta:units elems w
//mheta:units ratio scale
//mheta:units seconds return
func (m *Model) sectionBusy(si int, s *SectionParams, p, w int, scale float64) float64 {
	if w == 0 {
		return 0
	}
	t := 0.0
	for sti := range s.Stages {
		t += m.stageTime(&s.Stages[sti], m.stageVar[si][sti], s.Tiles, p, w, scale)
	}
	return t
}

// stageTime implements §4.2.1 for one stage on one node: computation
// scaled to the assigned work, plus the Equation 1 (synchronous) or
// Equation 2 (prefetching) I/O term for the streamed variable.
//
//mheta:units blocks tiles
//mheta:units elems w
//mheta:units ratio scale
//mheta:units seconds return
func (m *Model) stageTime(st *StageParams, varIdx, tiles, p, w int, scale float64) float64 {
	t := st.ComputePerElem[p] * float64(w) * scale
	if varIdx < 0 {
		return t
	}
	layout := m.layouts[p][varIdx]
	if layout.InCore {
		// In core: only the compulsory read, charged outside the
		// iteration loop; per-iteration I/O is zero (§4.2.1).
		return t
	}
	stream := memsim.StreamPlan(w, st.ElemBytes, layout.ICLABytes, tiles)
	oclaBytes := int64(w) * st.ElemBytes
	nr := stream.ChunksPerTile * tiles // total reads per iteration
	disk := m.p.Disk[p]
	// kd is the shared-disk contention factor: every disk service time —
	// seeks and byte latencies, but not the CPU-side issue cost — runs
	// kd× slower when kd nodes stream through the global disk.
	kd := m.kShared

	// Write-back term, common to Equations 1 and 2: NR·Ow + OCLA·lw.
	if !st.ReadOnly {
		t += (float64(nr)*disk.WriteSeek + float64(oclaBytes)*st.WritePerByte[p]) * kd
	}

	if !st.Prefetch {
		// Equation 1: NR·Or + OCLA·lr. (The paper writes NR·(Or+Lr) with
		// Lr the full-ICLA latency; summing actual chunk bytes is the
		// same quantity with the final partial chunk handled exactly.)
		t += (float64(nr)*disk.ReadSeek + float64(oclaBytes)*st.ReadPerByte[p]) * kd
		return t
	}

	// Equation 2. Per tile: the first read pays the full latency
	// Or + chunk·lr; each of the remaining NR−1 reads pays the issue
	// overhead To plus the effective latency Le = max(0, R − Tov), where
	// Tov is the computation overlapping the in-flight prefetch.
	chunkBytes := int64(stream.ChunkElems) * stream.StripBytes
	fullRead := (disk.ReadSeek + float64(chunkBytes)*st.ReadPerByte[p]) * kd
	// Overlap is computation, so it scales with the iteration weight too.
	tovPerChunk := st.OverlapPerElem[p] * float64(stream.ChunkElems) * scale
	le := fullRead - tovPerChunk
	if le < 0 {
		le = 0
	}
	perTile := fullRead // first chunk of the tile
	if stream.ChunksPerTile > 1 {
		rest := stream.ChunksPerTile - 1
		perTile += float64(rest) * (disk.IssueCost + le)
		// The final chunk of a tile is usually partial; its prefetch
		// latency is proportionally smaller. Account for the partial
		// chunk exactly, as the synchronous path does.
		lastBytes := int64(w-(stream.ChunksPerTile-1)*stream.ChunkElems) * stream.StripBytes
		if lastBytes < chunkBytes {
			shortBy := float64(chunkBytes-lastBytes) * st.ReadPerByte[p] * kd
			lastRead := fullRead - shortBy
			lastLe := lastRead - tovPerChunk
			if lastLe < 0 {
				lastLe = 0
			}
			perTile += lastLe - le // replace one full Le with the partial one
		}
	}
	t += float64(tiles) * perTile
	return t
}
