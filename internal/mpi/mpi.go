// Package mpi is the message-passing runtime the applications run on: an
// in-process analogue of LAM-MPI (the paper's substrate) in which each
// rank has its own virtual clock, disk, and noise streams.
//
// Two engines drive the ranks. The goroutine engine (World.Run) runs
// each rank on its own goroutine, delivering through blocking
// per-(src,dst) mailboxes. The event engine (BindScheduler plus the
// resumable operations in event.go) runs every rank from one driver
// goroutine that dispatches from internal/sched's event heap: a receive
// that finds no message parks the rank instead of blocking. Either way a
// rank's operations run on one goroutine at a time, so per-rank state
// (clock, noise streams, the CallInfo its profiler hooks receive) needs
// no locking.
//
// Timing semantics mirror what MHETA models (§4.2.2):
//
//   - Send charges the sender os(m) = fixed overhead + per-byte copy cost
//     and is asynchronous — the message is buffered, the sender never
//     blocks ("both nodes perform their sends before blocking"). Send
//     copies the payload, so the caller may reuse its buffer at once.
//   - A message becomes available at the receiver at
//     sendFinish + transferTime.
//   - Recv blocks (in virtual time) until availability, then charges the
//     receiver or(m). The blocked span is the Twait of Equation 3/4.
//   - Collectives are built from Send/Recv over a binomial tree, so their
//     virtual-time behaviour follows from the point-to-point rules and the
//     model can reproduce it arithmetically.
//
// Cross-rank coupling happens only through message timestamps, which
// is sufficient because the applications' communication is deterministic:
// every Recv names its source and tag, so matching is unambiguous and the
// virtual-time outcome is independent of the host scheduler or of the
// order the event heap dispatches ranks in.
package mpi

import (
	"fmt"
	"sync"

	"mheta/internal/cluster"
	"mheta/internal/disksim"
	"mheta/internal/netsim"
	"mheta/internal/sched"
	"mheta/internal/vclock"
)

// AnyTag matches any message tag in Recv.
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

type message struct {
	tag     int
	data    []byte
	arrival vclock.Time
}

// mailbox is an unbounded FIFO of messages for one (src,dst) pair.
// Unbounded buffering keeps sends non-blocking, matching the model's
// assumption that send overhead is paid immediately and the message is
// then "on route".
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message //mheta:guardedby mu
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take removes and returns the first message matching tag (or the first
// message of any tag when tag == AnyTag), blocking until one exists.
// Per-pair FIFO order among equal tags is preserved, as in MPI.
func (m *mailbox) take(tag int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.msgs {
			if tag == AnyTag || msg.tag == tag {
				m.msgs = append(m.msgs[:i], m.msgs[i+1:]...)
				return msg
			}
		}
		m.cond.Wait()
	}
}

// World is one emulated cluster run: ranks, mailboxes, network and disks.
type World struct {
	spec cluster.Spec
	net  *netsim.Network
	// ranks is flat, each rank holding its clock and noise streams by
	// value: a world allocates its ranks in one piece plus a disk each.
	ranks []Rank
	// Mailboxes are created lazily per communicating (src,dst) pair: the
	// applications' patterns (chains, binomial trees) touch O(n·log n)
	// pairs, so eager n² allocation would dominate memory at 10k+ ranks.
	boxMu sync.Mutex
	boxes map[uint64]*mailbox //mheta:guardedby boxMu
	// sched, when bound, replaces goroutine mailbox delivery with the
	// discrete-event scheduler (see BindScheduler).
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
	// happens per rank (netNz below) so concurrent ranks neither race on
	// a noise stream nor make each other's draws schedule-dependent.
	w := &World{
		spec:  spec,
		net:   netsim.New(n, spec.Net, nil),
		boxes: make(map[uint64]*mailbox),
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

// Run executes fn once per rank, concurrently, and returns each rank's
// final virtual time. It panics if any rank panics (after all finish or
// deadlock — application bugs surface as Go deadlock reports).
func (w *World) Run(fn func(r *Rank)) []vclock.Time {
	if w.sched != nil {
		panic("mpi: World.Run while a scheduler is bound")
	}
	var wg sync.WaitGroup
	panics := make([]any, w.Size())
	for i := range w.ranks {
		wg.Add(1)
		//mheta:lifecycle waitgroup
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[r.rank] = p
				}
			}()
			fn(r)
		}(&w.ranks[i])
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", r, p))
		}
	}
	times := make([]vclock.Time, w.Size())
	for i := range w.ranks {
		times[i] = w.ranks[i].clk.Now()
	}
	return times
}

// ResetClocks rewinds every rank's clock and disk service queue so the
// same world (with data already on disk) can run another phase.
func (w *World) ResetClocks() {
	for i := range w.ranks {
		w.ranks[i].clk.Reset()
		w.ranks[i].disk.ResetTiming()
	}
	w.boxMu.Lock()
	w.boxes = make(map[uint64]*mailbox)
	w.boxMu.Unlock()
}

func boxKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// box returns the (src,dst) mailbox, creating it on first use. Both the
// sender and the receiver race to create it, hence the lock; contention
// is negligible because each pair is touched repeatedly after the first
// message.
func (w *World) box(src, dst int) *mailbox {
	key := boxKey(src, dst)
	w.boxMu.Lock()
	b := w.boxes[key]
	if b == nil {
		b = newMailbox()
		w.boxes[key] = b
	}
	w.boxMu.Unlock()
	return b
}

// BindScheduler routes message delivery through the discrete-event
// scheduler s instead of the goroutine mailboxes. While bound, all
// ranks must be driven from s's single dispatch loop (the exec event
// engine): blocking Recv panics — parking receivers use TryRecv — and
// World.Run must not be called.
func (w *World) BindScheduler(s *sched.Scheduler) {
	if s != nil && s.Size() != w.Size() {
		panic(fmt.Sprintf("mpi: scheduler for %d ranks bound to a %d-rank world", s.Size(), w.Size()))
	}
	w.sched = s
}

// UnbindScheduler restores goroutine (blocking) delivery.
func (w *World) UnbindScheduler() { w.sched = nil }

// Rank is one process of the emulated application. All methods must be
// called from the rank's own goroutine (inside World.Run) except the
// data-placement helpers Disk and SetProfiler, which are used before the
// run starts.
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
	// operations run on one goroutine at a time under either engine and
	// no profiler keeps the pointer past its hook, so one per rank
	// suffices even though collectives nest.
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
// sender os(m) and never blocks.
func (r *Rank) Send(dst, tag int, data []byte) {
	if dst == r.rank {
		panic("mpi: Send to self")
	}
	c := CallInfo{Kind: CallSend, Peer: dst, Bytes: len(data), Tag: tag}
	start := r.begin(c)
	r.clk.Advance(r.netNz.Perturb(r.world.net.SendCost(r.rank, dst, len(data))))
	arrival := r.clk.Now() + vclock.Time(r.netNz.Perturb(r.world.net.TransferTime(r.rank, dst, len(data))))
	// Both paths copy the payload: the scheduler into its arena, the
	// mailbox into a buffer of its own.
	if s := r.world.sched; s != nil {
		s.Send(r.rank, dst, sched.Msg{Tag: tag, Data: data, Arrival: arrival})
	} else {
		payload := append([]byte(nil), data...)
		r.world.box(r.rank, dst).put(message{tag: tag, data: payload, arrival: arrival})
	}
	r.end(c, start)
}

// Recv blocks until a matching message from src arrives, advances the
// clock to its arrival time, charges or(m), and returns the payload.
func (r *Rank) Recv(src, tag int) []byte {
	if src == r.rank {
		panic("mpi: Recv from self")
	}
	if r.world.sched != nil {
		panic("mpi: blocking Recv under the event engine; drivers must use TryRecv")
	}
	c := CallInfo{Kind: CallRecv, Peer: src, Tag: tag}
	start := r.begin(c)
	msg := r.world.box(src, r.rank).take(tag)
	c.Bytes = len(msg.data)
	c.Wait = r.clk.WaitUntil(msg.arrival)
	r.clk.Advance(r.netNz.Perturb(r.world.net.RecvCost(src, r.rank, len(msg.data))))
	r.end(c, start)
	return msg.data
}

// Sendrecv sends to dst and receives from src (possibly the same rank on
// both sides of a boundary exchange). The send happens first, matching
// the model's assumption that sends precede blocking.
func (r *Rank) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) []byte {
	r.Send(dst, sendTag, data)
	return r.Recv(src, recvTag)
}
