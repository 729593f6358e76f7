// Package sched is the discrete-event core of the emulator: a central
// scheduler that dispatches ranks from an event heap instead of running
// one goroutine per rank.
//
// The runtime it serves (internal/mpi + internal/exec) has exactly one
// cross-rank blocking primitive — Recv — and every other operation
// (compute, disk I/O, prefetch waits, sends) advances only the calling
// rank's own clock. A rank can therefore be driven as a resumable state
// machine that runs straight-line until it needs a message that has not
// been sent yet, parks, and is woken by the matching Send. Emulating a
// rank then costs a heap push/pop per park/resume rather than a
// goroutine, which is what lets the emulator reach 10k+ ranks in
// seconds (DESIGN.md §5.13).
//
// Determinism contract: dispatch order is a pure function of the event
// set. The heap is keyed by (virtual time, rank, seq) — seq is a global
// push counter that only breaks ties between equal (time, rank) keys,
// which cannot occur while each rank has at most one pending event, so
// dispatch order is independent of insertion order. Message matching is
// per-(src,dst) FIFO with tag filtering, byte-for-byte the semantics of
// the goroutine core's mailbox.take. The scheduler never consults wall
// time or ambient randomness.
//
// Memory layout: undelivered messages sit in one inbox per destination
// rank, a slice indexed by rank whose messages carry their source, and
// every payload is copied into a bump arena the scheduler owns. A run
// with n ranks therefore allocates O(n) inbox slices once and a payload
// chunk per arenaChunk bytes sent, not a queue per link and a buffer
// per message.
package sched

import (
	"fmt"
	"slices"

	"mheta/internal/vclock"
)

// AnyTag matches any message tag in TryRecv and Park (mirrors
// mpi.AnyTag; duplicated here so sched does not import mpi).
const AnyTag = -1

// Msg is one in-flight message between two ranks. Arrival is the
// virtual time at which the message becomes available to the receiver.
// Src is the sending rank; Send fills it in.
type Msg struct {
	Src     int
	Tag     int
	Data    []byte
	Arrival vclock.Time //mheta:units seconds
}

// Stats counts scheduler activity over one run. Events is the number of
// rank dispatches (heap pops); Sends, Parks and Wakes count message
// deliveries, blocked receives and park/wake pairs. MaxHeap is the
// high-water mark of the event heap.
type Stats struct {
	Events  uint64
	Sends   uint64
	Parks   uint64
	Wakes   uint64
	MaxHeap int
}

// item is one pending dispatch: resume rank at virtual time t. seq is
// the tertiary tie-break (see the package comment).
type item struct {
	t    vclock.Time //mheta:units seconds
	rank int32
	seq  uint64
}

// less is the heap order: earliest time first, then lowest rank, then
// insertion sequence.
func (a item) less(b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// arenaChunk is the largest payload chunk. Chunks start at 1 KiB and
// double, so a small world's run does not pay for a large chunk.
// Payloads larger than a quarter chunk get a buffer of their own, so a
// full-size chunk wastes at most a quarter of itself at its tail.
const arenaChunk = 64 << 10

// arena is a bump allocator for message payloads. Chunks are never
// reused: a chunk is garbage once the scheduler has moved past it and
// no receiver still holds a payload in it.
type arena struct {
	buf []byte
}

// copy returns a copy of data with cap == len, so a receiver that
// appends to its payload reallocates instead of overwriting the next
// message in the chunk. Empty payloads copy to nil.
func (a *arena) copy(data []byte) []byte {
	n := len(data)
	switch {
	case n == 0:
		return nil
	case n > arenaChunk/4:
		out := make([]byte, n)
		copy(out, data)
		return out
	case len(a.buf)+n > cap(a.buf):
		size := min(max(2*cap(a.buf), 1<<10), arenaChunk)
		a.buf = make([]byte, 0, max(n, size))
	}
	off := len(a.buf)
	a.buf = append(a.buf, data...)
	return a.buf[off : off+n : off+n]
}

// park records why a rank is blocked: it wants a message from src with
// the given tag, and will resume at time t (its clock when it parked)
// once one is delivered.
type park struct {
	active bool
	src    int32
	tag    int
	t      vclock.Time //mheta:units seconds
}

// Scheduler drives n ranks from a single event heap. It is not safe for
// concurrent use: exactly one driver goroutine owns it, which is the
// point — cross-rank coupling happens through message timestamps, not
// the host scheduler.
type Scheduler struct {
	n    int
	heap []item
	seq  uint64
	// inbox[dst] holds dst's undelivered messages in send order. A
	// per-(src,dst) FIFO is the subsequence with one Src, so matching
	// the first message with the wanted source and tag is the mailbox
	// rule. Inboxes stay short (a rank's outstanding receives), so the
	// linear scan is cheaper than a per-link map.
	inbox  [][]Msg
	arena  arena
	parked []park
	inHeap []bool
	// last[r] is rank r's most recent dispatch (or park) time; virtual
	// time travel — re-readying a rank earlier than it already ran — is
	// a driver bug and panics.
	last  []vclock.Time //mheta:units seconds
	stats Stats
}

// inboxCap is each inbox's initial capacity: the two halo messages of a
// nearest-neighbour exchange.
const inboxCap = 2

// New returns a scheduler for n ranks with an empty event heap.
func New(n int) *Scheduler {
	if n <= 0 {
		panic(fmt.Sprintf("sched: invalid rank count %d", n))
	}
	// The inboxes are carved from one slab, capacity-clipped so an inbox
	// that outgrows its share reallocates instead of spilling into its
	// neighbour's.
	slab := make([]Msg, inboxCap*n)
	inbox := make([][]Msg, n)
	for r := range inbox {
		inbox[r] = slab[r*inboxCap : r*inboxCap : (r+1)*inboxCap]
	}
	return &Scheduler{
		n:      n,
		inbox:  inbox,
		parked: make([]park, n),
		inHeap: make([]bool, n),
		last:   make([]vclock.Time, n),
	}
}

// Size returns the number of ranks.
func (s *Scheduler) Size() int { return s.n }

func pairKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// Ready schedules rank r to be dispatched at virtual time t.
//
//mheta:units seconds t
func (s *Scheduler) Ready(r int, t vclock.Time) {
	if r < 0 || r >= s.n {
		panic(fmt.Sprintf("sched: Ready for rank %d of %d", r, s.n))
	}
	if s.inHeap[r] {
		panic(fmt.Sprintf("sched: rank %d readied twice", r))
	}
	if s.parked[r].active {
		panic(fmt.Sprintf("sched: rank %d readied while parked", r))
	}
	if t < s.last[r] {
		panic(fmt.Sprintf("sched: virtual time travel: rank %d readied at %v before %v", r, t, s.last[r]))
	}
	s.inHeap[r] = true
	s.push(item{t: t, rank: int32(r), seq: s.seq})
	s.seq++
	if len(s.heap) > s.stats.MaxHeap {
		s.stats.MaxHeap = len(s.heap)
	}
}

// Next pops the earliest pending dispatch. ok is false when the heap is
// empty — the run is complete, or deadlocked if ranks remain parked.
func (s *Scheduler) Next() (rank int, ok bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	it := s.pop()
	r := int(it.rank)
	s.inHeap[r] = false
	s.last[r] = it.t
	s.stats.Events++
	return r, true
}

// Send delivers m on the src→dst link, waking dst if it is parked on a
// matching (src, tag). It copies m.Data into the scheduler's payload
// arena, so the caller may reuse its buffer as soon as Send returns.
// The delivered payload has cap == len and lives until the receiver
// drops it.
func (s *Scheduler) Send(src, dst int, m Msg) {
	if dst < 0 || dst >= s.n {
		panic(fmt.Sprintf("sched: Send to rank %d of %d", dst, s.n))
	}
	m.Src = src
	m.Data = s.arena.copy(m.Data)
	s.inbox[dst] = append(s.inbox[dst], m)
	s.stats.Sends++
	if p := &s.parked[dst]; p.active && int(p.src) == src && (p.tag == AnyTag || p.tag == m.Tag) {
		p.active = false
		s.stats.Wakes++
		s.Ready(dst, p.t)
	}
}

// TryRecv removes and returns the first undelivered message matching
// tag on the src→dst link (FIFO among matches, exactly like the
// goroutine core's mailbox.take). It does not park; a driver that gets
// ok == false parks the receiver explicitly.
func (s *Scheduler) TryRecv(src, dst, tag int) (Msg, bool) {
	q := s.inbox[dst]
	for i := range q {
		if q[i].Src != src || (tag != AnyTag && q[i].Tag != tag) {
			continue
		}
		m := q[i]
		copy(q[i:], q[i+1:])
		q[len(q)-1] = Msg{} // drop the payload reference
		s.inbox[dst] = q[:len(q)-1]
		return m, true
	}
	return Msg{}, false
}

// Park blocks rank r until a message from src with the given tag is
// delivered; r resumes at time t (its clock when it parked — parking
// itself consumes no virtual time).
//
//mheta:units seconds t
func (s *Scheduler) Park(r, src, tag int, t vclock.Time) {
	if s.inHeap[r] {
		panic(fmt.Sprintf("sched: rank %d parked while ready", r))
	}
	if s.parked[r].active {
		panic(fmt.Sprintf("sched: rank %d parked twice", r))
	}
	if t < s.last[r] {
		panic(fmt.Sprintf("sched: virtual time travel: rank %d parked at %v before %v", r, t, s.last[r]))
	}
	s.parked[r] = park{active: true, src: int32(src), tag: tag, t: t}
	s.last[r] = t
	s.stats.Parks++
}

// ParkedRanks returns the ranks currently blocked in a Recv, ascending —
// the deadlock report when Next runs dry with ranks unfinished.
func (s *Scheduler) ParkedRanks() []int {
	var out []int
	for r := range s.parked {
		if s.parked[r].active {
			out = append(out, r)
		}
	}
	return out
}

// PendingMessages returns the number of undelivered messages across all
// links (diagnostics; a clean run ends with zero).
func (s *Scheduler) PendingMessages() int {
	total := 0
	for _, q := range s.inbox {
		total += len(q)
	}
	return total
}

// Stats returns the activity counters so far.
func (s *Scheduler) Stats() Stats { return s.stats }

// push and pop implement a classic binary min-heap over items; hand
// rolled (rather than container/heap) to avoid interface boxing on the
// hottest path of the event engine.
func (s *Scheduler) push(it item) {
	s.heap = append(s.heap, it)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heap[i].less(s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Scheduler) pop() item {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && s.heap[l].less(s.heap[min]) {
			min = l
		}
		if r < last && s.heap[r].less(s.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
	return top
}

// DumpState renders the scheduler's blocking picture for deadlock
// errors: which ranks are parked on which (src, tag), and how many
// messages sit undelivered, with deterministic ordering.
func (s *Scheduler) DumpState() string {
	parked := s.ParkedRanks()
	out := fmt.Sprintf("%d parked", len(parked))
	limit := parked
	if len(limit) > 8 {
		limit = limit[:8]
	}
	for _, r := range limit {
		p := s.parked[r]
		out += fmt.Sprintf(" [rank %d ← src %d tag %d @%v]", r, p.src, p.tag, p.t)
	}
	if len(parked) > 8 {
		out += " …"
	}
	// One key per undelivered message; sorted, equal keys are adjacent
	// and each run is one link's count.
	var keys []uint64
	for dst, q := range s.inbox {
		for _, m := range q {
			keys = append(keys, pairKey(m.Src, dst))
		}
	}
	slices.Sort(keys)
	out += fmt.Sprintf("; %d undelivered", len(keys))
	for i, links := 0, 0; i < len(keys); links++ {
		if links == 8 {
			out += " …"
			break
		}
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		out += fmt.Sprintf(" [%d→%d: %d]", keys[i]>>32, uint32(keys[i]), j-i)
		i = j
	}
	return out
}
