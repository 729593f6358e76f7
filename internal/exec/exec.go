// Package exec is the application executor: it interprets a program.IR on
// the emulated cluster, performing the real computation (each application
// supplies numeric kernels), the real out-of-core I/O through disksim, and
// the real message passing through mpi — all under virtual time. This is
// the "actual execution" side of the paper's evaluation; the core package
// is the predicting side.
//
// The executor owns the structure MHETA assumes (§3.1): iterations contain
// parallel sections, sections contain tiles, tiles contain stages; each
// stage streams at most one out-of-core variable through memory in ICLA
// chunks, optionally with the Figure 6 prefetch unrolling; sections end in
// nearest-neighbour, pipelined, or reduction communication.
//
// Residency decisions use memsim.PlanGreedy — the runtime's real packing —
// which MHETA approximates with the simpler memsim.Plan; their boundary
// disagreements reproduce the paper's §5.4 limitation 2.
package exec

import (
	"fmt"

	"mheta/internal/cluster"
	"mheta/internal/disksim"
	"mheta/internal/dist"
	"mheta/internal/memsim"
	"mheta/internal/mpi"
	"mheta/internal/mpijack"
	"mheta/internal/program"
	"mheta/internal/sched"
	"mheta/internal/trace"
)

// Mode selects a plain run or the instrumented iteration.
type Mode int

const (
	// ModeRun executes all iterations with no interception.
	ModeRun Mode = iota
	// ModeInstrument executes a single iteration with MPI-Jack recorders
	// attached, forced I/O for all distributed variables (§4.1.1), and
	// the Figure 5 prefetch transform.
	ModeInstrument
)

// State is the per-rank application state: numeric kernels plus whatever
// halos, in-core vectors and replicated data the application keeps.
type State interface {
	// Init runs once before the iteration loop: it lays the rank's blocks
	// out on its local disk (untimed — the dataset starts on local disk
	// under the Local Placement rule) and prepares in-memory state.
	// In-core variables are loaded by the executor after Init returns.
	Init(nc *NodeCtx)
	// Process performs the real computation for rows
	// [gRow, gRow+nRows) of stage (sec, stg) within tile, over the chunk
	// bytes buf (aliasing in-core memory, or a disk chunk that the
	// executor writes back unless the variable is read-only). It returns
	// the work units consumed, which the executor charges to the virtual
	// clock; returning actual per-row cost (e.g. nonzero counts for
	// sparse CG) is how irregular workloads diverge from MHETA's
	// uniform-scaling assumption.
	Process(nc *NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64
	// BoundaryMsg returns the payload this rank sends to its neighbour in
	// direction dir (-1 up the chain, +1 down) for the given section and
	// tile. Pipelined sections only use dir=+1. Send copies the payload
	// before BoundaryMsg is called again, so an app may return the same
	// buffer every time.
	BoundaryMsg(nc *NodeCtx, sec, tile, dir int) []byte
	// OnBoundary delivers a received boundary payload. The app owns it:
	// no other message shares its bytes, and appending reallocates.
	OnBoundary(nc *NodeCtx, sec, tile, dir int, data []byte)
	// ReduceVal returns this rank's contribution to the section-ending
	// reduction, which the reduction copies, so it too may be a reused
	// buffer; OnReduce receives the combined result.
	ReduceVal(nc *NodeCtx, sec int) []float64
	OnReduce(nc *NodeCtx, sec int, vals []float64)
}

// App couples a program IR with a State factory.
type App struct {
	Prog *program.Program
	// NewState builds rank-local state; it must be deterministic in
	// (rank, dist) so actual runs are reproducible.
	NewState func(nc *NodeCtx) State
}

// NodeCtx is the executor's per-rank context, visible to application
// kernels.
type NodeCtx struct {
	R     *mpi.Rank
	Prog  *program.Program
	Dist  dist.Distribution
	Start int // first global row owned
	Count int // rows owned
	Iter  int // current iteration
	// InCore holds memory-resident local arrays keyed by variable name,
	// laid out tile-major (the on-disk layout). It is nil until the first
	// in-core array is loaded.
	InCore map[string][]byte

	app     *App
	state   State
	dvars   []program.Variable       // the program's distributed variables
	plan    map[string]memsim.Layout // shared read-only with equal ranks
	jack    *mpijack.Jack
	rec     *mpijack.Recorder
	tr      *trace.Trace
	mode    Mode
	actIdx  int   // index in active-node list, -1 if inactive
	actives []int // ranks with non-zero work
}

// ActiveIndex returns this rank's position among active (non-empty)
// ranks, or -1.
func (nc *NodeCtx) ActiveIndex() int { return nc.actIdx }

// ActivePeer returns the rank at active position i.
func (nc *NodeCtx) ActivePeer(i int) int { return nc.actives[i] }

// ActiveCount returns how many ranks own work.
func (nc *NodeCtx) ActiveCount() int { return len(nc.actives) }

// Layout returns the runtime residency layout for variable v.
func (nc *NodeCtx) Layout(v string) memsim.Layout { return nc.plan[v] }

// Result summarises one executed run.
type Result struct {
	// NodeTimes[p] is rank p's virtual finish time measured from the
	// post-setup barrier (compulsory reads and data placement excluded,
	// matching the model's steady-state scope).
	NodeTimes []float64 //mheta:units seconds
	// Time is the run's wall time: max over NodeTimes.
	Time float64 //mheta:units seconds
	// PerIteration is Time divided by the iteration count.
	PerIteration float64 //mheta:units seconds
	// Recorders holds each rank's instrumented measurements
	// (ModeInstrument only).
	Recorders []*mpijack.Recorder
}

// Options configure a run.
type Options struct {
	Mode Mode
	// Iterations overrides the program's iteration count (0 keeps it).
	// ModeInstrument always runs exactly one iteration.
	Iterations int
	// Trace, when non-nil, collects per-rank timelines (sections, I/O,
	// blocked time). Plain runs only — ModeInstrument owns the profiler
	// slot for MPI-Jack.
	Trace *trace.Trace
	// EventStats, when non-nil, receives the scheduler counters after a
	// run (dispatches, messages, parks — the events/sec numerator of the
	// scale benchmarks).
	EventStats *sched.Stats
}

// runEnv is one run's precomputed setup, shared read-only by every
// rank's machine.
type runEnv struct {
	w          *mpi.World
	app        *App
	d          dist.Distribution
	opts       Options
	iters      int
	dvars      []program.Variable
	actives    []int
	actIdx     []int                      // actIdx[p]: position of rank p in actives, -1 if inactive
	startOf    []int                      // startOf[p]: first global row of rank p (prefix sums of d)
	plans      []map[string]memsim.Layout // plans[p]: rank p's residency plan
	contention float64
	recs       []*mpijack.Recorder
	starts     []float64
	ends       []float64
}

// Run executes app under distribution d on world w.
func Run(w *mpi.World, app *App, d dist.Distribution, opts Options) (Result, error) {
	env, err := prepare(w, app, d, opts)
	if err != nil {
		return Result{}, err
	}
	if err := env.runEvent(); err != nil {
		return Result{}, err
	}
	return env.result(), nil
}

// prepare validates inputs and computes everything the ranks share:
// iteration count, the distributed variables, active ranks (with an O(1)
// per-rank index, not the old O(n) scan per rank), row prefix sums,
// residency plans, and shared-disk contention.
func prepare(w *mpi.World, app *App, d dist.Distribution, opts Options) (*runEnv, error) {
	if err := app.Prog.Validate(); err != nil {
		return nil, err
	}
	if len(d) != w.Size() {
		return nil, fmt.Errorf("exec: distribution for %d nodes on a %d-node world", len(d), w.Size())
	}
	if err := d.Validate(app.Prog.GlobalElems()); err != nil {
		return nil, err
	}
	iters := app.Prog.Iterations
	if opts.Iterations > 0 {
		iters = opts.Iterations
	}
	if opts.Mode == ModeInstrument {
		iters = 1
	}

	n := w.Size()
	env := &runEnv{
		w:          w,
		app:        app,
		d:          d,
		opts:       opts,
		iters:      iters,
		dvars:      app.Prog.DistributedVars(),
		actIdx:     make([]int, n),
		startOf:    make([]int, n),
		contention: 1.0,
		recs:       make([]*mpijack.Recorder, n),
		starts:     make([]float64, n),
		ends:       make([]float64, n),
	}
	row := 0
	for p, wk := range d {
		env.startOf[p] = row
		row += wk
		env.actIdx[p] = -1
		if wk > 0 {
			env.actIdx[p] = len(env.actives)
			env.actives = append(env.actives, p)
		}
	}

	instrument := opts.Mode == ModeInstrument
	env.plans = residencyPlans(w.Spec(), env.dvars, d, instrument)
	// Shared-disk contention (§3.2 extension): each of k concurrently
	// streaming nodes sees the global disk k× slower. k is computed from
	// the same residency rules the runtime applies, so it is
	// deterministic and known to all ranks.
	if w.Spec().SharedDisk {
		env.contention = contention(env.plans, env.dvars, d, instrument)
	}
	return env, nil
}

// setupRank builds rank r's NodeCtx in nc, wires profilers and disk
// modes, initialises application state, and performs the compulsory
// in-core loads — everything that happens before the aligning barrier.
// All of it is rank-local: Init and loadInCore only touch the rank's own
// clock and disk.
func (env *runEnv) setupRank(nc *NodeCtx, r *mpi.Rank) {
	p := r.Rank()
	*nc = NodeCtx{
		R:       r,
		Prog:    env.app.Prog,
		Dist:    env.d,
		Start:   env.startOf[p],
		Count:   env.d[p],
		app:     env.app,
		dvars:   env.dvars,
		plan:    env.plans[p],
		mode:    env.opts.Mode,
		actIdx:  env.actIdx[p],
		actives: env.actives,
	}
	if env.opts.Mode == ModeInstrument {
		nc.jack = mpijack.New()
		nc.rec = mpijack.NewRecorder(p)
		nc.rec.Attach(nc.jack)
		r.SetProfiler(nc.jack)
		r.Disk().SetMode(disksim.ModeInstrument)
		env.recs[p] = nc.rec
	} else {
		if env.opts.Trace != nil {
			nc.tr = env.opts.Trace
			r.SetProfiler(&trace.Collector{T: env.opts.Trace, Rank: p})
		} else {
			r.SetProfiler(nil)
		}
		r.Disk().SetMode(disksim.ModeNormal)
	}

	r.Disk().SetContention(env.contention)
	nc.state = env.app.NewState(nc)
	nc.state.Init(nc)
	nc.loadInCore()
}

// result assembles the run's Result from the per-rank start and end times.
func (env *runEnv) result() Result {
	n := env.w.Size()
	res := Result{NodeTimes: make([]float64, n), Recorders: env.recs}
	start := 0.0
	for _, s := range env.starts {
		if s > start {
			start = s
		}
	}
	for p := range env.ends {
		res.NodeTimes[p] = env.ends[p] - start
		if res.NodeTimes[p] > res.Time {
			res.Time = res.NodeTimes[p]
		}
	}
	res.PerIteration = res.Time / float64(env.iters)
	return res
}

// SharedDiskContention returns the number of ranks that stream at least
// one variable out of core under d — the bandwidth-sharing factor of the
// global-disk extension. In instrument mode all active ranks stream
// (forced I/O, §4.1.1), so the factor is the active count.
func SharedDiskContention(spec cluster.Spec, prog *program.Program, d dist.Distribution, instrumentMode bool) float64 {
	dvars := prog.DistributedVars()
	return contention(residencyPlans(spec, dvars, d, false), dvars, d, instrumentMode)
}

// contention is SharedDiskContention over residency plans already built
// for d.
func contention(plans []map[string]memsim.Layout, dvars []program.Variable, d dist.Distribution, instrumentMode bool) float64 {
	k := 0
	for p, count := range d {
		if count == 0 {
			continue
		}
		if instrumentMode {
			if len(dvars) > 0 {
				k++
			}
			continue
		}
		for _, l := range plans[p] {
			if !l.InCore {
				k++
				break
			}
		}
	}
	if k < 1 {
		return 1
	}
	return float64(k)
}

// residencyPlans returns each rank's runtime residency plan under d.
// A plan depends only on the rank's row count and memory budget, so
// ranks with equal pairs share one read-only map and the planner runs
// once per distinct pair: once in all for a homogeneous Blk run.
func residencyPlans(spec cluster.Spec, dvars []program.Variable, d dist.Distribution, instrumentMode bool) []map[string]memsim.Layout {
	type key struct {
		count int
		mem   int64
	}
	memo := make(map[key]map[string]memsim.Layout)
	plans := make([]map[string]memsim.Layout, len(d))
	for p, count := range d {
		k := key{count, spec.Nodes[p].MemoryBytes}
		plan, ok := memo[k]
		if !ok {
			plan = residencyPlan(dvars, count, k.mem, instrumentMode)
			memo[k] = plan
		}
		plans[p] = plan
	}
	return plans
}

// residencyPlan runs the greedy (runtime-true) residency planner for a
// rank owning count rows with mem bytes of memory; in instrument mode
// every distributed variable is then forced out of core so all nodes
// measure I/O latencies for all variables (§4.1.1: "all nodes are forced
// to perform I/O during the instrumented execution for any distributed
// variables").
func residencyPlan(dvars []program.Variable, count int, mem int64, instrumentMode bool) map[string]memsim.Layout {
	varBytes := make(map[string]int64)
	elemSize := make(map[string]int64)
	for _, v := range dvars {
		varBytes[v.Name] = int64(count) * v.ElemBytes
		elemSize[v.Name] = v.ElemBytes
	}
	plan := memsim.PlanGreedy(memsim.Budget{Capacity: mem}, varBytes, elemSize)
	if !instrumentMode {
		return plan
	}
	for name, l := range plan {
		if !l.InCore || l.OCLABytes == 0 {
			continue
		}
		es := elemSize[name]
		// Split the local array into two chunks so prefetching stages
		// exhibit at least one issue/overlap window to measure.
		half := memsim.CeilDiv(l.OCLABytes, 2)
		half += (es - half%es) % es
		if half < es {
			half = es
		}
		if half >= l.OCLABytes {
			// One-element arrays: a single forced read still measures lr.
			plan[name] = memsim.Layout{Variable: name, OCLABytes: l.OCLABytes, ICLABytes: l.OCLABytes, Passes: 1, InCore: false}
			continue
		}
		plan[name] = memsim.Layout{
			Variable:  name,
			OCLABytes: l.OCLABytes,
			ICLABytes: half,
			Passes:    int(memsim.CeilDiv(l.OCLABytes, half)),
			InCore:    false,
		}
	}
	return plan
}

// loadInCore performs the compulsory read of each in-core local array
// into memory — once, before the iteration loop, so steady-state
// iterations incur no I/O for them (§3.1).
func (nc *NodeCtx) loadInCore() {
	for _, v := range nc.dvars {
		l, ok := nc.plan[v.Name]
		if !ok || !l.InCore || nc.Count == 0 {
			continue
		}
		data := nc.R.FileRead(v.Name, 0, int(int64(nc.Count)*v.ElemBytes))
		if nc.InCore == nil {
			nc.InCore = make(map[string][]byte, len(nc.dvars))
		}
		nc.InCore[v.Name] = data
	}
}

// flushInCore writes memory-resident local arrays back to disk after the
// measured region — the program's terminal output write, so post-run
// verification sees final values whether a variable lived in or out of
// core. The flush is untimed: it is outside the iterative phase both the
// emulator and the model measure. Store takes each array without a copy:
// the run is over and nothing touches InCore again.
func (nc *NodeCtx) flushInCore() {
	for _, v := range nc.dvars {
		if v.ReadOnly {
			continue
		}
		if data, ok := nc.InCore[v.Name]; ok {
			nc.R.Disk().Store(v.Name, data)
		}
	}
}
