package mpi

// Resumable operations: the receive and the collectives as state
// machines that World.Run's step functions drive (DESIGN.md §5.13).
//
// The only operation that blocks on another rank is a receive;
// everything else advances the calling rank's own clock. So a rank's
// program is straight-line code with explicit park points at each
// receive: TryRecv either completes the receive or parks the rank in
// the scheduler and returns false, to be retried after the matching
// Send wakes it. The collectives compose TryRecv over binomial trees,
// each a state machine that resumes where it parked.
//
// Determinism follows from two properties, both enforced here:
//
//  1. Per-rank op order is fixed by the rank's program — every pre/post
//     hook, clock advance, and noise draw happens in program order, with
//     Pre fired once per logical call (before the first match attempt,
//     however often the receive parks).
//  2. Message matching is per-(src,dst) FIFO with tag filtering, so a
//     receive's match does not depend on when it is attempted.
//
// Since all cross-rank data flow is message timestamps, any dispatch
// order the scheduler picks yields the same clocks, traces and
// recorder contents.

import "mheta/internal/vclock"

// RecvOp is one receive in flight. Set Src and Tag, then call TryRecv
// until it succeeds; the op fires the profiler's Pre hook on the first
// attempt only and keeps its start time across parks, so hooks fire
// exactly once per logical receive. A completed op is ready for the
// next receive.
type RecvOp struct {
	Src, Tag int
	started  bool
	start    vclock.Time
}

// TryRecv attempts the receive described by op. On a match it waits
// (in virtual time) for the message's arrival, charges or(m), fires the
// Post hook and returns the payload, which the scheduler copied at Send
// and the caller now owns. On a miss it parks the rank on (src, tag)
// and returns false; the step must then return false, and World.Run
// calls it again once the matching Send wakes the rank, to retry the
// same op.
func (r *Rank) TryRecv(op *RecvOp) ([]byte, bool) {
	s := r.world.sched
	if s == nil {
		panic("mpi: TryRecv outside World.Run")
	}
	if op.Src == r.rank {
		panic("mpi: Recv from self")
	}
	c := CallInfo{Kind: CallRecv, Peer: op.Src, Tag: op.Tag}
	if !op.started {
		op.start = r.begin(c)
		op.started = true
	}
	m, ok := s.TryRecv(op.Src, r.rank, op.Tag)
	if !ok {
		s.Park(r.rank, op.Src, op.Tag, r.clk.Now())
		return nil, false
	}
	op.started = false
	c.Bytes = len(m.Data)
	c.Wait = r.clk.WaitUntil(m.Arrival)
	r.clk.Advance(r.netNz.Perturb(r.world.net.RecvCost(op.Src, r.rank, len(m.Data))))
	r.end(c, op.start)
	return m.Data, true
}

// The collective state machines below are allocated per collective and
// dropped when it completes. While a barrier is in flight every rank
// holds one, so they keep a start time rather than a CallInfo.

// ReduceSM combines each rank's Vals element-wise with Op onto Root over
// a binomial tree. Every rank in the world runs one with the same Root,
// Tag, Op and length. Step returns false when the rank parked mid-tree;
// retry after the scheduler redispatches.
type ReduceSM struct {
	Root, Tag int
	Op        ReduceOp
	Vals      []float64

	started bool
	sent    bool // this rank passed its partial vector to its parent
	start   vclock.Time
	acc     []float64
	mask    int
	recv    RecvOp
}

func (s *ReduceSM) call() CallInfo {
	return CallInfo{Kind: CallReduce, Peer: s.Root, Bytes: 8 * len(s.Vals), Tag: s.Tag}
}

// Step advances the reduction until it completes (true) or parks
// (false).
func (s *ReduceSM) Step(r *Rank) bool {
	n := r.Size()
	if !s.started {
		s.start = r.begin(s.call())
		s.acc = append([]float64(nil), s.Vals...)
		s.mask = 1
		s.started = true
	}
	rel := (r.rank - s.Root + n) % n
	itag := reservedTagBase + s.Tag
	for ; s.mask < n; s.mask <<= 1 {
		if rel&s.mask != 0 {
			parent := ((rel - s.mask) + s.Root) % n
			r.Send(parent, itag, r.encode(s.acc))
			s.sent = true
			break
		}
		if rel+s.mask < n {
			s.recv.Src, s.recv.Tag = (rel+s.mask+s.Root)%n, itag
			data, ok := r.TryRecv(&s.recv)
			if !ok {
				return false
			}
			for i := range s.acc {
				s.acc[i] = s.Op(s.acc[i], f64At(data, i))
			}
		}
	}
	r.end(s.call(), s.start)
	return true
}

// Result returns the combined vector on the root, nil elsewhere. Valid
// once Step returned true.
func (s *ReduceSM) Result() []float64 {
	if s.sent {
		return nil
	}
	return s.acc
}

// BcastSM distributes Root's Vals to every rank over a binomial tree
// (one park point: the receive from the parent; forwarding to children
// never blocks). On non-root ranks Vals sizes the call and its storage
// receives the root's vector; AllreduceSM passes a buffer of its own.
type BcastSM struct {
	Root, Tag int
	Vals      []float64

	started    bool
	start      vclock.Time
	mask       int
	forwarding bool
	recv       RecvOp
	vals       []float64
}

func (s *BcastSM) call() CallInfo {
	return CallInfo{Kind: CallBcast, Peer: s.Root, Bytes: 8 * len(s.Vals), Tag: s.Tag}
}

// Step advances the broadcast until it completes (true) or parks
// (false).
func (s *BcastSM) Step(r *Rank) bool {
	n := r.Size()
	rel := (r.rank - s.Root + n) % n
	itag := reservedTagBase + (1 << 20) + s.Tag
	if !s.started {
		s.start = r.begin(s.call())
		s.vals = s.Vals
		s.mask = 1
		s.started = true
	}
	if !s.forwarding {
		for s.mask < n {
			if rel&s.mask != 0 {
				s.recv.Src, s.recv.Tag = ((rel&^s.mask)+s.Root)%n, itag
				data, ok := r.TryRecv(&s.recv)
				if !ok {
					return false
				}
				s.vals = decodeF64sInto(s.Vals, data)
				break
			}
			s.mask <<= 1
		}
		s.forwarding = true
		s.mask >>= 1
	}
	for ; s.mask >= 1; s.mask >>= 1 {
		if rel+s.mask < n && rel&(s.mask-1) == 0 && rel&s.mask == 0 {
			child := (rel + s.mask + s.Root) % n
			r.Send(child, itag, r.encode(s.vals))
		}
	}
	r.end(s.call(), s.start)
	return true
}

// Result returns the broadcast vector. Valid once Step returned true.
func (s *BcastSM) Result() []float64 { return s.vals }

// AllreduceSM composes ReduceSM to rank 0 with BcastSM from rank 0, the
// structure the MHETA reduction model mirrors. Both halves are embedded,
// and the broadcast reuses the reduction's accumulator as its buffer, so
// an allreduce allocates at most that one vector beyond the machine
// itself.
type AllreduceSM struct {
	Tag  int
	Op   ReduceOp
	Vals []float64

	reduce  ReduceSM
	bcast   BcastSM
	reduced bool
}

// Step advances the allreduce until it completes (true) or parks
// (false).
func (s *AllreduceSM) Step(r *Rank) bool {
	if !s.reduced {
		if !s.reduce.started {
			s.reduce = ReduceSM{Root: 0, Tag: s.Tag, Op: s.Op, Vals: s.Vals}
		}
		if !s.reduce.Step(r) {
			return false
		}
		// Root: the combined vector. Elsewhere: a len(Vals) buffer the
		// broadcast overwrites.
		s.bcast = BcastSM{Root: 0, Tag: s.Tag, Vals: s.reduce.acc}
		s.reduced = true
	}
	return s.bcast.Step(r)
}

// Result returns the combined vector, identical on every rank. Valid
// once Step returned true.
func (s *AllreduceSM) Result() []float64 { return s.bcast.Result() }

// BarrierSM synchronises all ranks: an empty AllreduceSM wrapped in the
// Barrier CallInfo.
type BarrierSM struct {
	Tag int

	started bool
	start   vclock.Time
	all     AllreduceSM
}

// Step advances the barrier until it completes (true) or parks (false).
func (s *BarrierSM) Step(r *Rank) bool {
	c := CallInfo{Kind: CallBarrier, Tag: s.Tag}
	if !s.started {
		s.start = r.begin(c)
		s.all = AllreduceSM{Tag: s.Tag + (1 << 21), Op: OpSum}
		s.started = true
	}
	if !s.all.Step(r) {
		return false
	}
	r.end(c, s.start)
	return true
}
