// Package mpi is the message-passing runtime the applications run on: an
// in-process analogue of LAM-MPI (the paper's substrate) in which each
// rank has its own virtual clock, disk, and noise streams.
//
// World.Run drives every rank from one goroutine that dispatches from
// internal/sched's event heap. A rank's program is a resumable step
// function: it runs straight-line until a receive finds no message, at
// which point TryRecv parks the rank in the scheduler and the step
// returns false; the matching Send wakes it and the driver resumes it.
// One goroutine runs every rank, so per-rank state (clock, noise
// streams, the CallInfo its profiler hooks receive) needs no locking.
//
// Timing semantics mirror what MHETA models (§4.2.2):
//
//   - Send charges the sender os(m) = fixed overhead + per-byte copy cost
//     and is asynchronous — the message is buffered, the sender never
//     blocks ("both nodes perform their sends before blocking"). Send
//     copies the payload, so the caller may reuse its buffer at once.
//   - A message becomes available at the receiver at
//     sendFinish + transferTime.
//   - A receive waits (in virtual time) until availability, then charges
//     the receiver or(m). The waited span is the Twait of Equation 3/4.
//   - Collectives are built from Send and receive over a binomial tree,
//     so their virtual-time behaviour follows from the point-to-point
//     rules and the model can reproduce it arithmetically.
//
// Cross-rank coupling happens only through message timestamps, which
// is sufficient because the applications' communication is deterministic:
// every receive names its source and tag, so matching is unambiguous and
// the virtual-time outcome is independent of the order the event heap
// dispatches ranks in.
package mpi

import (
	"fmt"

	"mheta/internal/cluster"
	"mheta/internal/disksim"
	"mheta/internal/netsim"
	"mheta/internal/sched"
	"mheta/internal/vclock"
)

// AnyTag matches any message tag in a receive.
const AnyTag = -1

// Tags at or above reservedTagBase are reserved for collectives.
const reservedTagBase = 1 << 28

// CallKind identifies an intercepted runtime operation for the profiling
// layer (our PMPI analogue; see package mpijack).
type CallKind int

const (
	CallSend CallKind = iota
	CallRecv
	CallReduce
	CallBcast
	CallBarrier
	CallFileRead
	CallFileWrite
	CallPrefetchIssue
	CallPrefetchWait
	CallCompute
)

var callKindNames = [...]string{
	"Send", "Recv", "Reduce", "Bcast", "Barrier",
	"FileRead", "FileWrite", "PrefetchIssue", "PrefetchWait", "Compute",
}

// String implements fmt.Stringer.
func (k CallKind) String() string {
	if int(k) < len(callKindNames) {
		return callKindNames[k]
	}
	return fmt.Sprintf("CallKind(%d)", int(k))
}

// CallInfo describes one intercepted operation. The profiling layer's Pre
// hook sees Start filled in; Post sees End and Wait as well.
type CallInfo struct {
	Kind  CallKind
	Rank  int
	Peer  int    // destination/source rank, or tree root for collectives
	Bytes int    // payload size
	Var   string // variable name for file operations
	Tag   int
	Start vclock.Time
	End   vclock.Time
	// Wait is the virtual time the rank spent blocked (Recv, PrefetchWait)
	// as opposed to busy.
	Wait vclock.Duration
}

// Duration returns the call's total virtual span.
func (c *CallInfo) Duration() vclock.Duration { return vclock.Duration(c.End - c.Start) }

// Profiler intercepts runtime calls, PMPI-style. Implementations must be
// cheap; they run on every operation of the instrumented rank. The
// CallInfo a hook receives is the rank's scratch, valid only until the
// hook returns: a profiler copies what it keeps.
type Profiler interface {
	Pre(*CallInfo)
	Post(*CallInfo)
}

// World is one emulated cluster run: ranks, network and disks.
type World struct {
	spec cluster.Spec
	net  *netsim.Network
	// ranks is flat, each rank holding its clock and noise streams by
	// value: a world allocates its ranks in one piece plus a disk each.
	ranks []Rank
	// sched delivers messages and parks receivers while Run drives the
	// ranks; nil between runs.
	sched *sched.Scheduler
}

// NewWorld builds a world for the given cluster spec. seed drives all
// noise streams; noiseAmp is the perturbation amplitude (0 disables noise,
// giving the model's idealised timing — used by the ablation benches).
func NewWorld(spec cluster.Spec, seed uint64, noiseAmp float64) *World {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n := spec.N()
	root := vclock.NewNoise(seed, noiseAmp)
	// The network's cost model is shared and read-only; perturbation
	// happens per rank (netNz below) so a rank's draws do not depend on
	// the order ranks are dispatched in.
	w := &World{
		spec:  spec,
		net:   netsim.New(n, spec.Net, nil),
		ranks: make([]Rank, n),
	}
	for i := range w.ranks {
		r := &w.ranks[i]
		nodeNoise := root.Fork(uint64(i) + 1)
		r.world = w
		r.rank = i
		r.diskNz = *nodeNoise.Fork(1)
		r.disk = disksim.New(spec.DiskParams(i), &r.diskNz)
		r.compNz = *nodeNoise.Fork(2)
		r.netNz = *nodeNoise.Fork(3)
		r.cpuPower = spec.Nodes[i].CPUPower
		r.memBytes = spec.Nodes[i].MemoryBytes
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Spec returns the cluster spec the world was built from.
func (w *World) Spec() cluster.Spec { return w.spec }

// Rank returns rank r's handle (for pre-run data placement and post-run
// inspection).
func (w *World) Rank(r int) *Rank { return &w.ranks[r] }

// Run drives every rank from one discrete-event scheduler until each
// rank's step has returned true. A rank starts ready at its current
// clock; step runs it forward and returns false when it parked in a
// receive (TryRecv), and the driver calls step again once the matching
// Send wakes the rank. A rank panic is re-raised as "mpi: rank %d
// panicked: …". If every unfinished rank is parked, Run returns an
// error carrying the scheduler's DumpState instead of hanging. The
// returned counters cover this run only.
func (w *World) Run(step func(*Rank) bool) (sched.Stats, error) {
	n := w.Size()
	s := sched.New(n)
	w.sched = s
	defer func() { w.sched = nil }()
	for p := range w.ranks {
		s.Ready(p, w.ranks[p].clk.Now())
	}
	for remaining := n; remaining > 0; {
		p, ok := s.Next()
		if !ok {
			return s.Stats(), fmt.Errorf("mpi: deadlock with %d of %d ranks unfinished: %s", remaining, n, s.DumpState())
		}
		if resume(step, &w.ranks[p]) {
			remaining--
		}
	}
	return s.Stats(), nil
}

// resume runs step on rank r, converting a panic into a report naming
// the rank.
func resume(step func(*Rank) bool, r *Rank) bool {
	defer func() {
		if p := recover(); p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", r.rank, p))
		}
	}()
	return step(r)
}

// ResetClocks rewinds every rank's clock and disk service queue so the
// same world (with data already on disk) can run another phase.
func (w *World) ResetClocks() {
	for i := range w.ranks {
		w.ranks[i].clk.Reset()
		w.ranks[i].disk.ResetTiming()
	}
}

// Rank is one process of the emulated application. Send and TryRecv
// work only inside World.Run, from the rank's own step; the rank-local
// operations (Compute, the file calls) and the data-placement helpers
// Disk and SetProfiler work outside it as well.
type Rank struct {
	world    *World
	rank     int
	clk      vclock.Clock
	disk     *disksim.Disk
	diskNz   vclock.Noise // the disk's stream; disk holds a pointer to it
	compNz   vclock.Noise
	netNz    vclock.Noise
	cpuPower float64
	memBytes int64
	prof     Profiler
	// ci is the CallInfo every profiler hook of this rank receives.
	// Operations describe themselves by value and copy into it only to
	// call a hook (begin/end), so no operation allocates one. A rank's
	// operations run on one goroutine and no profiler keeps the pointer
	// past its hook, so one per rank suffices even though collectives
	// nest.
	ci CallInfo
	// enc is the collectives' scratch for encoding a vector to send.
	enc []byte
	// Interference models a non-dedicated environment (§3.2 assumes a
	// dedicated one and defers multiprogramming to future work): external
	// load steals CPU, inflating compute times by a deterministic,
	// slowly-varying factor in [1, 1+amp] driven by virtual time with a
	// per-rank phase. Zero amplitude (the default) is the paper's
	// dedicated cluster.
	intfAmp    float64
	intfPeriod float64
}

// Rank returns this rank's id.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.Size() }

// Now returns the rank's current virtual time.
func (r *Rank) Now() vclock.Time { return r.clk.Now() }

// Clock exposes the rank's clock (for harness bookkeeping).
func (r *Rank) Clock() *vclock.Clock { return &r.clk }

// Disk exposes the rank's local disk (for data placement and assertions).
func (r *Rank) Disk() *disksim.Disk { return r.disk }

// CPUPower returns the rank's relative CPU power.
func (r *Rank) CPUPower() float64 { return r.cpuPower }

// MemoryBytes returns the node's ICLA memory budget.
func (r *Rank) MemoryBytes() int64 { return r.memBytes }

// SetProfiler attaches a profiling layer (nil detaches).
func (r *Rank) SetProfiler(p Profiler) { r.prof = p }

// begin fires the Pre hook for the operation c and returns its start
// time, which the operation keeps for end.
func (r *Rank) begin(c CallInfo) vclock.Time {
	c.Rank = r.rank
	c.Start = r.clk.Now()
	if r.prof != nil {
		r.ci = c
		r.prof.Pre(&r.ci)
	}
	return c.Start
}

// end fires the Post hook for the operation c that began at start; c
// carries whatever the operation learned meanwhile (Bytes, Wait).
func (r *Rank) end(c CallInfo, start vclock.Time) {
	if r.prof != nil {
		c.Rank = r.rank
		c.Start = start
		c.End = r.clk.Now()
		r.ci = c
		r.prof.Post(&r.ci)
	}
}

// SetInterference configures non-dedicated-environment load on this rank
// (amplitude ≥ 0; period is the load oscillation in virtual seconds,
// default 1s when ≤ 0). Used by the robustness experiments; the model
// never sees it.
func (r *Rank) SetInterference(amp, period float64) {
	if amp < 0 {
		amp = 0
	}
	if period <= 0 {
		period = 1
	}
	r.intfAmp, r.intfPeriod = amp, period
}

// interferenceFactor is the current external-load multiplier: a smooth
// per-rank phase-shifted wave of virtual time, so it is deterministic and
// uncorrelated across ranks.
func (r *Rank) interferenceFactor() float64 {
	if r.intfAmp == 0 {
		return 1
	}
	x := float64(r.clk.Now())/r.intfPeriod + float64(r.rank)*0.37
	x -= float64(int64(x)) // frac
	// Smooth triangle wave in [0,1]: cheap, deterministic, no math import.
	if x > 0.5 {
		x = 1 - x
	}
	return 1 + r.intfAmp*2*x
}

// Compute advances the rank's clock by work·unitCost/CPUPower, perturbed
// by the rank's compute-noise stream and any configured external load.
// work is in abstract units; unitCost is the application's
// seconds-per-unit on a power-1.0 node.
func (r *Rank) Compute(work, unitCost float64) {
	c := CallInfo{Kind: CallCompute}
	start := r.begin(c)
	if work > 0 {
		d := vclock.Duration(work * unitCost / r.cpuPower * r.interferenceFactor())
		r.clk.Advance(r.compNz.Perturb(d))
	}
	r.end(c, start)
}

// Send transmits data to rank dst with the given tag. It charges the
// sender os(m) and never blocks. The scheduler copies the payload into
// its arena, so the caller may reuse data at once.
func (r *Rank) Send(dst, tag int, data []byte) {
	if dst == r.rank {
		panic("mpi: Send to self")
	}
	s := r.world.sched
	if s == nil {
		panic("mpi: Send outside World.Run")
	}
	c := CallInfo{Kind: CallSend, Peer: dst, Bytes: len(data), Tag: tag}
	start := r.begin(c)
	r.clk.Advance(r.netNz.Perturb(r.world.net.SendCost(r.rank, dst, len(data))))
	arrival := r.clk.Now() + vclock.Time(r.netNz.Perturb(r.world.net.TransferTime(r.rank, dst, len(data))))
	s.Send(r.rank, dst, sched.Msg{Tag: tag, Data: data, Arrival: arrival})
	r.end(c, start)
}
