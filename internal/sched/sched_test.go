package sched

import (
	"testing"
)

func TestDispatchOrder(t *testing.T) {
	s := New(4)
	s.Ready(2, 3.0)
	s.Ready(0, 1.0)
	s.Ready(3, 2.0)
	s.Ready(1, 2.0)
	// Ranks 3 and 1 are both at t=2.0: the rank tie-break puts 1 first.
	want := []int{0, 1, 3, 2}
	for i, w := range want {
		r, ok := s.Next()
		if !ok {
			t.Fatalf("heap dry at %d", i)
		}
		if r != w {
			t.Fatalf("dispatch %d = rank %d, want %d", i, r, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("heap should be empty")
	}
}

// TestTieBreakInsertionIndependence: equal-time events dispatch by rank
// regardless of the order they were pushed — the determinism half of the
// heap key (virtual time, rank, seq).
func TestTieBreakInsertionIndependence(t *testing.T) {
	n := 7
	perms := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
		{1, 6, 0, 5, 3, 4, 2},
	}
	var first []int
	for pi, perm := range perms {
		s := New(n)
		for _, r := range perm {
			s.Ready(r, 5.0)
		}
		var got []int
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		if pi == 0 {
			first = got
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("perm %v: dispatch order %v, want ascending ranks", perm, got)
			}
			if got[i] != first[i] {
				t.Fatalf("perm %v: order differs from first permutation", perm)
			}
		}
	}
}

func TestFIFOPerTag(t *testing.T) {
	s := New(2)
	s.Send(0, 1, Msg{Tag: 7, Data: []byte("a"), Arrival: 1})
	s.Send(0, 1, Msg{Tag: 9, Data: []byte("b"), Arrival: 2})
	s.Send(0, 1, Msg{Tag: 7, Data: []byte("c"), Arrival: 3})

	// Tag 7 pops FIFO among tag-7 messages, skipping tag 9.
	m, ok := s.TryRecv(0, 1, 7)
	if !ok || string(m.Data) != "a" {
		t.Fatalf("first tag-7 = %q, want a", m.Data)
	}
	// AnyTag pops the overall head (tag 9 now).
	m, ok = s.TryRecv(0, 1, AnyTag)
	if !ok || string(m.Data) != "b" {
		t.Fatalf("AnyTag = %q, want b", m.Data)
	}
	m, ok = s.TryRecv(0, 1, 7)
	if !ok || string(m.Data) != "c" {
		t.Fatalf("second tag-7 = %q, want c", m.Data)
	}
	if _, ok := s.TryRecv(0, 1, 7); ok {
		t.Fatal("queue should be empty")
	}
	// The reverse link is independent.
	if _, ok := s.TryRecv(1, 0, AnyTag); ok {
		t.Fatal("reverse link should be empty")
	}
}

func TestParkWake(t *testing.T) {
	s := New(3)
	// Rank 1 parks waiting for (src=0, tag=5) at its clock time 2.5.
	s.Park(1, 0, 5, 2.5)
	if got := s.ParkedRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("parked = %v, want [1]", got)
	}
	// A non-matching tag does not wake it.
	s.Send(0, 1, Msg{Tag: 6, Arrival: 3})
	if _, ok := s.Next(); ok {
		t.Fatal("non-matching tag must not wake")
	}
	// A matching send wakes rank 1 at its park time.
	s.Send(0, 1, Msg{Tag: 5, Arrival: 4})
	r, ok := s.Next()
	if !ok || r != 1 {
		t.Fatalf("woke rank %d ok=%v, want rank 1", r, ok)
	}
	if len(s.ParkedRanks()) != 0 {
		t.Fatal("rank should be unparked")
	}
	// Both messages are still in the queue, FIFO.
	m, ok := s.TryRecv(0, 1, 5)
	if !ok || m.Tag != 5 {
		t.Fatalf("tag-5 message missing: %v %v", m, ok)
	}
	m, ok = s.TryRecv(0, 1, AnyTag)
	if !ok || m.Tag != 6 {
		t.Fatalf("tag-6 message missing: %v %v", m, ok)
	}
}

func TestParkAnyTagWake(t *testing.T) {
	s := New(2)
	s.Park(1, 0, AnyTag, 0)
	s.Send(0, 1, Msg{Tag: 42})
	if r, ok := s.Next(); !ok || r != 1 {
		t.Fatal("AnyTag park must wake on any tag")
	}
}

// TestNoTimeTravel: re-readying or parking a rank earlier than its last
// dispatch is a driver bug and must panic.
func TestNoTimeTravel(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	s := New(2)
	s.Ready(0, 5.0)
	if r, ok := s.Next(); !ok || r != 0 {
		t.Fatal("setup dispatch failed")
	}
	mustPanic("ready-into-past", func() { s.Ready(0, 4.0) })

	s2 := New(2)
	s2.Ready(0, 5.0)
	s2.Next()
	mustPanic("park-into-past", func() { s2.Park(0, 1, 0, 4.0) })

	s3 := New(2)
	s3.Ready(0, 1.0)
	mustPanic("double-ready", func() { s3.Ready(0, 2.0) })

	s4 := New(2)
	s4.Park(0, 1, 0, 1.0)
	mustPanic("park-then-ready", func() { s4.Ready(0, 2.0) })
	mustPanic("double-park", func() { s4.Park(0, 1, 0, 2.0) })
}

// TestWakeResumesAtParkTime: a woken receiver re-enters the heap at its
// own (earlier) clock time, ahead of later entries — global dispatch
// times are legitimately non-monotone, while each rank's own dispatch
// times never regress (enforced by the scheduler itself, see
// TestNoTimeTravel).
func TestWakeResumesAtParkTime(t *testing.T) {
	s := New(3)
	// Rank 1 parked at t=1.0; rank 2 pending at t=10.0.
	s.Park(1, 0, 7, 1.0)
	s.Ready(2, 10.0)
	// Rank 0 (the sender, "running now") delivers at its virtual time 5.0;
	// the wake must dispatch rank 1 at 1.0, before rank 2's 10.0.
	s.Send(0, 1, Msg{Tag: 7, Arrival: 5.0})
	r, ok := s.Next()
	if !ok || r != 1 {
		t.Fatalf("first dispatch = rank %d, want woken rank 1", r)
	}
	r, ok = s.Next()
	if !ok || r != 2 {
		t.Fatalf("second dispatch = rank %d, want rank 2", r)
	}
}

func TestDeadlockReport(t *testing.T) {
	s := New(3)
	s.Park(0, 1, 3, 1.5)
	s.Park(2, 0, 4, 2.5)
	s.Send(1, 0, Msg{Tag: 99, Arrival: 1}) // wrong tag: no wake
	got := s.ParkedRanks()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("parked = %v, want [0 2]", got)
	}
	if s.PendingMessages() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingMessages())
	}
	dump := s.DumpState()
	if dump == "" {
		t.Fatal("empty dump")
	}
}

func TestStats(t *testing.T) {
	s := New(2)
	s.Ready(0, 0)
	s.Next()
	s.Park(1, 0, 1, 0)
	s.Send(0, 1, Msg{Tag: 1})
	s.Next()
	st := s.Stats()
	if st.Events != 2 || st.Sends != 1 || st.Parks != 1 || st.Wakes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxHeap < 1 {
		t.Fatalf("MaxHeap = %d", st.MaxHeap)
	}
}

func TestInvalidNew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) must panic")
		}
	}()
	New(0)
}

// TestArenaPayloads pins the payload ownership contract: Send copies
// into the scheduler's arena, so the sender may reuse its buffer at
// once, and every delivered payload has cap == len, so a receiver that
// appends to one reallocates instead of overwriting the next message
// in the chunk.
func TestArenaPayloads(t *testing.T) {
	s := New(2)
	buf := make([]byte, 0, arenaChunk)
	sizes := []int{0, 1, 7, 32, arenaChunk / 4, arenaChunk/4 + 1, 3, arenaChunk, 5}
	for i, n := range sizes {
		buf = buf[:0]
		for j := 0; j < n; j++ {
			buf = append(buf, byte(i+j))
		}
		s.Send(0, 1, Msg{Tag: i, Data: buf})
		clear(buf) // reuse: must not reach the queued copy
	}
	var got [][]byte
	for i, n := range sizes {
		m, ok := s.TryRecv(0, 1, i)
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		if len(m.Data) != n || cap(m.Data) != len(m.Data) {
			t.Fatalf("message %d: len %d cap %d, want len %d and cap == len", i, len(m.Data), cap(m.Data), n)
		}
		got = append(got, m.Data)
	}
	for i := range got {
		got[i] = append(got[i], 0xFF) // must not clobber a neighbour
	}
	for i, n := range sizes {
		for j := 0; j < n; j++ {
			if got[i][j] != byte(i+j) {
				t.Fatalf("message %d byte %d = %d, want %d", i, j, got[i][j], byte(i+j))
			}
		}
	}
}

// TestDumpStateLinks pins the deadlock report's per-link section: one
// [src→dst: k] entry per link with undelivered messages, sorted by
// source then destination.
func TestDumpStateLinks(t *testing.T) {
	s := New(3)
	s.Park(0, 1, 3, 1.5)
	s.Send(2, 0, Msg{Tag: 1})
	s.Send(1, 0, Msg{Tag: 99})
	s.Send(0, 2, Msg{Tag: 5})
	s.Send(1, 0, Msg{Tag: 98})
	want := "1 parked [rank 0 ← src 1 tag 3 @1.5]; 4 undelivered [0→2: 1] [1→0: 2] [2→0: 1]"
	if got := s.DumpState(); got != want {
		t.Fatalf("DumpState() = %q, want %q", got, want)
	}
}
