// Package mpijack reproduces MPI-Jack [1], the interposition tool the
// paper uses to extract MHETA's parameters transparently (Figure 3).
//
// MPI-Jack exploits PMPI, MPI's profiling layer: every MPI call can be
// wrapped with user-supplied pre and post hooks that run arbitrary code.
// Our mpi runtime exposes the equivalent seam as the mpi.Profiler
// interface; this package provides the hook registry, the section/tile/
// stage context the hooks consult (the PID/TID/SID/VID of Figure 3), and
// the timing recorder the instrument package builds parameters from.
package mpijack

import (
	"fmt"

	"mheta/internal/mpi"
	"mheta/internal/vclock"
)

// Context is the position of a rank within the program structure,
// maintained by the application harness via Enter*/Leave* calls. Hooks
// read it to attribute costs: "Get PID: current parallel section #, Get
// TID: current tile #, Get SID: current stage #" (Figure 3).
type Context struct {
	Section int // PID
	Tile    int // TID
	Stage   int // SID
	// InStage is true between EnterStage and LeaveStage; hooks use it to
	// separate stage I/O from communication-triggered I/O.
	InStage bool
}

// Hook is a user function run before or after an intercepted call.
type Hook func(ctx Context, ci *mpi.CallInfo)

// Jack is one rank's interposition state: hook registry plus context.
// It implements mpi.Profiler. A Jack belongs to one rank and is driven by
// its world's driver goroutine.
type Jack struct {
	ctx   Context
	pre   map[mpi.CallKind][]Hook
	post  map[mpi.CallKind][]Hook
	depth int // collective nesting depth; see Pre
}

// New returns an empty Jack (all hooks undefined — the "Without MPI-Jack"
// side of Figure 3: calls pass straight through).
func New() *Jack {
	return &Jack{
		pre:  make(map[mpi.CallKind][]Hook),
		post: make(map[mpi.CallKind][]Hook),
	}
}

// PreHook registers fn to run before every call of kind k.
func (j *Jack) PreHook(k mpi.CallKind, fn Hook) { j.pre[k] = append(j.pre[k], fn) }

// PostHook registers fn to run after every call of kind k.
func (j *Jack) PostHook(k mpi.CallKind, fn Hook) { j.post[k] = append(j.post[k], fn) }

// EnterSection/LeaveSection, EnterTile, EnterStage/LeaveStage maintain the
// structural context. The harness calls these at the boundaries the user
// or preprocessor marks in the source (§4.1.1: "The user or preprocessor
// can insert functions in the source code to indicate when stages begin
// and end").

// EnterSection sets the current parallel section.
func (j *Jack) EnterSection(pid int) { j.ctx.Section = pid; j.ctx.Tile = 0; j.ctx.Stage = 0 }

// LeaveSection clears tile/stage state at the end of a section.
func (j *Jack) LeaveSection() { j.ctx.Tile, j.ctx.Stage, j.ctx.InStage = 0, 0, false }

// EnterTile sets the current tile within the section.
func (j *Jack) EnterTile(tid int) { j.ctx.Tile = tid }

// EnterStage marks the start of stage sid.
func (j *Jack) EnterStage(sid int) { j.ctx.Stage = sid; j.ctx.InStage = true }

// LeaveStage marks the end of the current stage.
func (j *Jack) LeaveStage() { j.ctx.InStage = false }

// Ctx returns the current context (hooks receive it by value).
func (j *Jack) Ctx() Context { return j.ctx }

// isCollective reports whether k is built from nested point-to-point ops.
func isCollective(k mpi.CallKind) bool {
	switch k {
	case mpi.CallReduce, mpi.CallBcast, mpi.CallBarrier:
		return true
	}
	return false
}

// Pre implements mpi.Profiler. Point-to-point calls nested inside a
// collective are suppressed: the collective is the unit MHETA models, and
// counting its internal sends would double-book the cost.
func (j *Jack) Pre(ci *mpi.CallInfo) {
	if j.depth > 0 {
		if isCollective(ci.Kind) {
			j.depth++
		}
		return
	}
	if isCollective(ci.Kind) {
		j.depth++
	}
	for _, fn := range j.pre[ci.Kind] {
		fn(j.ctx, ci)
	}
}

// Post implements mpi.Profiler.
func (j *Jack) Post(ci *mpi.CallInfo) {
	if isCollective(ci.Kind) {
		j.depth--
		if j.depth > 0 {
			return
		}
	} else if j.depth > 0 {
		return
	}
	for _, fn := range j.post[ci.Kind] {
		fn(j.ctx, ci)
	}
}

// --- Timing recorder -------------------------------------------------

// IOKey attributes an I/O measurement: which variable, in which stage of
// which tile of which parallel section (the VID/SID/TID/PID of Figure 3).
type IOKey struct {
	Section, Tile, Stage int
	Var                  string
}

// String implements fmt.Stringer for diagnostics.
func (k IOKey) String() string {
	return fmt.Sprintf("P%d/T%d/S%d/%s", k.Section, k.Tile, k.Stage, k.Var)
}

// IORecord accumulates the I/O observed for one key.
type IORecord struct {
	ReadCalls, WriteCalls int   //mheta:units blocks
	ReadBytes, WriteBytes int64 //mheta:units bytes
	ReadTime, WriteTime   vclock.Duration
	// OverlapCompute is ΣTov: compute time between prefetch issues and
	// waits, measured under the Figure 5 transform; OverlapElems counts
	// the elements processed inside those windows, so Tov-per-element is
	// OverlapCompute/OverlapElems.
	OverlapCompute vclock.Duration
	OverlapElems   int64 //mheta:units elems
	PrefetchIssues int   //mheta:units blocks
}

// CommRecord accumulates communication observed for one (section, tile).
type CommRecord struct {
	Sends, Recvs         int   //mheta:units blocks
	SendBytes, RecvBytes int64 //mheta:units bytes
	SendTime, RecvTime   vclock.Duration
	WaitTime             vclock.Duration
	Peers                map[int]bool // nIDs seen (§4.1.2)
	Reductions           int          //mheta:units blocks
	ReduceBytes          int64        //mheta:units bytes
	ReduceTime           vclock.Duration
}

// Recorder collects one rank's instrumented-iteration measurements. It is
// a plain data sink; the instrument package turns recorders from all
// ranks into core.Params after the run. It is unlocked: the world's one
// driver goroutine runs every rank, so every hook lands on the recorder
// from that goroutine.
type Recorder struct {
	Rank int
	IO   map[IOKey]*IORecord
	// Comm is keyed by {section, tile}.
	Comm map[[2]int]*CommRecord
	// StageSpans holds EnterStage..LeaveStage durations keyed by
	// {section, tile, stage}; compute time = span − stage I/O (§4.1.1).
	StageSpans map[[3]int]vclock.Duration
}

// NewRecorder returns an empty recorder for the given rank.
func NewRecorder(rank int) *Recorder {
	return &Recorder{
		Rank:       rank,
		IO:         make(map[IOKey]*IORecord),
		Comm:       make(map[[2]int]*CommRecord),
		StageSpans: make(map[[3]int]vclock.Duration),
	}
}

func (rec *Recorder) io(ctx Context, v string) *IORecord {
	k := IOKey{ctx.Section, ctx.Tile, ctx.Stage, v}
	r, ok := rec.IO[k]
	if !ok {
		r = &IORecord{}
		rec.IO[k] = r
	}
	return r
}

func (rec *Recorder) comm(ctx Context) *CommRecord {
	k := [2]int{ctx.Section, ctx.Tile}
	r, ok := rec.Comm[k]
	if !ok {
		r = &CommRecord{Peers: make(map[int]bool)}
		rec.Comm[k] = r
	}
	return r
}

// Attach registers the standard MHETA extraction hooks on j, recording
// into rec. This is the "right side" of Figure 3: timers around I/O calls
// keyed by VID/SID/TID/PID, plus sender/recipient nID extraction from the
// communication calls' parameters (§4.1.2).
func (rec *Recorder) Attach(j *Jack) {
	j.PostHook(mpi.CallFileRead, func(ctx Context, ci *mpi.CallInfo) {
		r := rec.io(ctx, ci.Var)
		r.ReadCalls++
		r.ReadBytes += int64(ci.Bytes)
		r.ReadTime += ci.Duration()
	})
	j.PostHook(mpi.CallFileWrite, func(ctx Context, ci *mpi.CallInfo) {
		r := rec.io(ctx, ci.Var)
		r.WriteCalls++
		r.WriteBytes += int64(ci.Bytes)
		r.WriteTime += ci.Duration()
	})
	// Under the instrumentation transform the issue *is* the read
	// (Figure 5), so record it as one.
	j.PostHook(mpi.CallPrefetchIssue, func(ctx Context, ci *mpi.CallInfo) {
		r := rec.io(ctx, ci.Var)
		r.PrefetchIssues++
		r.ReadCalls++
		r.ReadBytes += int64(ci.Bytes)
		r.ReadTime += ci.Duration()
	})
	j.PostHook(mpi.CallSend, func(ctx Context, ci *mpi.CallInfo) {
		c := rec.comm(ctx)
		c.Sends++
		c.SendBytes += int64(ci.Bytes)
		c.SendTime += ci.Duration()
		c.Peers[ci.Peer] = true
	})
	j.PostHook(mpi.CallRecv, func(ctx Context, ci *mpi.CallInfo) {
		c := rec.comm(ctx)
		c.Recvs++
		c.RecvBytes += int64(ci.Bytes)
		c.RecvTime += ci.Duration()
		c.WaitTime += ci.Wait
		c.Peers[ci.Peer] = true
	})
	j.PostHook(mpi.CallReduce, func(ctx Context, ci *mpi.CallInfo) {
		c := rec.comm(ctx)
		c.Reductions++
		c.ReduceBytes += int64(ci.Bytes)
		c.ReduceTime += ci.Duration()
	})
}

// RecordStageSpan adds a measured stage duration (the harness calls this
// around EnterStage/LeaveStage).
func (rec *Recorder) RecordStageSpan(section, tile, stage int, d vclock.Duration) {
	rec.StageSpans[[3]int{section, tile, stage}] += d
}

// RecordOverlap adds measured overlap computation Tov (covering elems
// elements) for a prefetching stage's variable.
func (rec *Recorder) RecordOverlap(section, tile, stage int, v string, d vclock.Duration, elems int) {
	k := IOKey{section, tile, stage, v}
	r, ok := rec.IO[k]
	if !ok {
		r = &IORecord{}
		rec.IO[k] = r
	}
	r.OverlapCompute += d
	r.OverlapElems += int64(elems)
}
