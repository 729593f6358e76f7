package exec

// The rank machine: every rank is an explicit state machine that
// mpi.World.Run drives from internal/sched's event heap (DESIGN.md
// §5.13).
//
// The machine's program counter marks exactly the points where a rank
// can block on another rank — the boundary receives and the collectives
// — and nothing else. All other work (tiles, stages, chunk loops,
// prefetch waits, sends) is rank-local in this runtime and runs
// straight through iteration.go's methods. Each park point is a
// receive that matches deterministically, so the clocks, traces and
// recorders are the same whatever order the heap dispatches ranks in.

import (
	"fmt"

	"mheta/internal/mpi"
	"mheta/internal/program"
	"mheta/internal/trace"
	"mheta/internal/vclock"
)

// evPC is the interpreter's program counter: one value per park-capable
// region of a rank's program.
type evPC int

const (
	pcSetup evPC = iota
	pcBarrier
	pcSectionStart
	pcPipeTile
	pcPipeRecv
	pcNNRecvLeft
	pcNNRecvRight
	pcReduce
	pcSectionEnd
	pcFinish
	pcDone
)

// evRank interprets one rank's program between park points. It lives
// for the whole run, so it stays small: the receive in flight is held
// by value, while a collective's state machine is allocated when the
// collective starts and dropped when it ends.
type evRank struct {
	env *runEnv
	r   *mpi.Rank
	nc  *NodeCtx

	pc       evPC
	sec      int
	tile     int
	secStart vclock.Time

	barrier *mpi.BarrierSM
	allred  *mpi.AllreduceSM
	recv    mpi.RecvOp
}

// runEvent runs every rank's machine to completion under World.Run.
// Clocks are reset first, so every rank starts ready at virtual time
// zero.
func (env *runEnv) runEvent() error {
	n := env.w.Size()
	env.w.ResetClocks()
	machines := make([]evRank, n)
	ncs := make([]NodeCtx, n)
	for p := range machines {
		machines[p] = evRank{env: env, r: env.w.Rank(p), nc: &ncs[p]}
	}
	st, err := env.w.Run(func(r *mpi.Rank) bool { return machines[r.Rank()].step() })
	if err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	if env.opts.EventStats != nil {
		*env.opts.EventStats = st
	}
	return nil
}

// step runs the rank forward until it parks (false) or finishes (true).
func (m *evRank) step() bool {
	for {
		switch m.pc {
		case pcSetup:
			// Rank setup, then a barrier aligns all ranks before the
			// measured iteration region.
			m.env.setupRank(m.nc, m.r)
			m.barrier = &mpi.BarrierSM{Tag: 1 << 16}
			m.pc = pcBarrier

		case pcBarrier:
			if !m.barrier.Step(m.r) {
				return false
			}
			m.barrier = nil
			m.env.starts[m.r.Rank()] = float64(m.r.Now())
			m.nc.Iter = 0
			m.sec = 0
			m.pc = pcSectionStart

		case pcSectionStart:
			// The section loop, flattened across iterations (Figure 1's
			// structure).
			if m.sec >= len(m.nc.Prog.Sections) {
				m.nc.Iter++
				if m.nc.Iter >= m.env.iters {
					m.pc = pcFinish
					continue
				}
				m.sec = 0
			}
			s := &m.nc.Prog.Sections[m.sec]
			if m.nc.jack != nil {
				m.nc.jack.EnterSection(m.sec)
			}
			m.secStart = m.r.Now()
			switch s.Comm {
			case program.CommPipeline:
				// Pipelined sections interleave communication with tiles
				// (§4.2.2, the RNA structure); inactive ranks skip the body.
				if m.nc.Count == 0 {
					m.pc = pcSectionEnd
					continue
				}
				m.tile = 0
				m.pc = pcPipeTile
			default:
				m.nc.runTiles(m.sec, s)
				// The section-ending communication.
				switch s.Comm {
				case program.CommNone:
					m.pc = pcSectionEnd
				case program.CommNearestNeighbor:
					if m.nc.Count == 0 {
						m.pc = pcSectionEnd
						continue
					}
					// Send left, send right, receive left, receive right —
					// the order the model's recurrence mirrors.
					i := m.nc.actIdx
					tag := sectionTag(m.sec)
					if i > 0 {
						m.r.Send(m.nc.actives[i-1], tag, m.nc.state.BoundaryMsg(m.nc, m.sec, 0, -1))
					}
					if i < len(m.nc.actives)-1 {
						m.r.Send(m.nc.actives[i+1], tag, m.nc.state.BoundaryMsg(m.nc, m.sec, 0, +1))
					}
					if i > 0 {
						m.recv = mpi.RecvOp{Src: m.nc.actives[i-1], Tag: tag}
					}
					m.pc = pcNNRecvLeft
				case program.CommReduction:
					vals := m.nc.state.ReduceVal(m.nc, m.sec)
					m.allred = &mpi.AllreduceSM{Tag: sectionTag(m.sec), Op: mpi.OpSum, Vals: vals}
					m.pc = pcReduce
				default:
					panic(fmt.Sprintf("exec: unsupported comm pattern %v", s.Comm))
				}
			}

		case pcPipeTile:
			// A pipeline tile: receive the upstream boundary, process the
			// tile's stages, forward downstream.
			s := &m.nc.Prog.Sections[m.sec]
			if m.tile >= s.Tiles {
				m.pc = pcSectionEnd
				continue
			}
			if m.nc.jack != nil {
				m.nc.jack.EnterTile(m.tile)
			}
			if m.nc.actIdx > 0 {
				m.recv = mpi.RecvOp{Src: m.nc.actives[m.nc.actIdx-1], Tag: sectionTag(m.sec)}
				m.pc = pcPipeRecv
				continue
			}
			m.pipeBody(s)

		case pcPipeRecv:
			data, ok := m.r.TryRecv(&m.recv)
			if !ok {
				return false
			}
			m.nc.state.OnBoundary(m.nc, m.sec, m.tile, -1, data)
			m.pipeBody(&m.nc.Prog.Sections[m.sec])
			m.pc = pcPipeTile

		case pcNNRecvLeft:
			i := m.nc.actIdx
			if i > 0 {
				data, ok := m.r.TryRecv(&m.recv)
				if !ok {
					return false
				}
				m.nc.state.OnBoundary(m.nc, m.sec, 0, -1, data)
			}
			if i < len(m.nc.actives)-1 {
				m.recv = mpi.RecvOp{Src: m.nc.actives[i+1], Tag: sectionTag(m.sec)}
			}
			m.pc = pcNNRecvRight

		case pcNNRecvRight:
			if m.nc.actIdx < len(m.nc.actives)-1 {
				data, ok := m.r.TryRecv(&m.recv)
				if !ok {
					return false
				}
				m.nc.state.OnBoundary(m.nc, m.sec, 0, +1, data)
			}
			m.pc = pcSectionEnd

		case pcReduce:
			if !m.allred.Step(m.r) {
				return false
			}
			m.nc.state.OnReduce(m.nc, m.sec, m.allred.Result())
			m.allred = nil
			m.pc = pcSectionEnd

		case pcSectionEnd:
			if m.nc.tr != nil {
				m.nc.tr.Add(trace.Span{
					Rank:  m.r.Rank(),
					Kind:  trace.SpanSection,
					Label: fmt.Sprintf("S%d", m.sec),
					Start: m.secStart,
					End:   m.r.Now(),
				})
			}
			if m.nc.jack != nil {
				m.nc.jack.LeaveSection()
			}
			m.sec++
			m.pc = pcSectionStart

		case pcFinish:
			m.env.ends[m.r.Rank()] = float64(m.r.Now())
			m.nc.flushInCore()
			m.pc = pcDone
			return true

		default:
			panic(fmt.Sprintf("exec: step on rank %d in state %d", m.r.Rank(), m.pc))
		}
	}
}

// pipeBody is the non-blocking tail of one pipeline tile: stages, then
// the downstream send, then advance to the next tile.
func (m *evRank) pipeBody(s *program.Section) {
	for sti := range s.Stages {
		m.nc.runStage(m.sec, sti, m.tile, s)
	}
	if m.nc.actIdx < len(m.nc.actives)-1 {
		m.r.Send(m.nc.actives[m.nc.actIdx+1], sectionTag(m.sec), m.nc.state.BoundaryMsg(m.nc, m.sec, m.tile, +1))
	}
	m.tile++
}
