// Package trace records per-rank virtual-time timelines of emulated runs
// — which parallel section, tile and stage each rank was in, and when it
// blocked — and renders them as text Gantt charts.
//
// Traces serve two purposes: debugging the executor (does the pipeline
// actually pipeline? where does the IO-bound node stall?), and validating
// MHETA structurally — the model's per-section finish times
// (core.Prediction.SectionTimes) can be laid over a trace to see *where*
// a prediction diverges, not just by how much.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"mheta/internal/mpi"
	"mheta/internal/vclock"
)

// Kind classifies a span.
type Kind int

const (
	// SpanSection covers one parallel section of one iteration.
	SpanSection Kind = iota
	// SpanStage covers one stage within a tile.
	SpanStage
	// SpanBlocked covers time a rank spent waiting for a message or a
	// prefetch.
	SpanBlocked
	// SpanIO covers synchronous file reads/writes.
	SpanIO
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SpanSection:
		return "section"
	case SpanStage:
		return "stage"
	case SpanBlocked:
		return "blocked"
	case SpanIO:
		return "io"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Span is one interval of a rank's timeline.
type Span struct {
	Rank       int
	Kind       Kind
	Label      string // e.g. "S0", "S0/T2/st1", variable name for IO
	Start, End vclock.Time
	// Peer, when non-zero, is 1 + the rank this span waited on (blocked
	// receives record their sender). The +1 bias keeps the zero value —
	// what every existing call site constructs — meaning "no peer".
	Peer int
}

// PeerRank returns the peer rank, or -1 when the span has none.
func (s Span) PeerRank() int { return s.Peer - 1 }

// Duration returns the span's length.
func (s Span) Duration() vclock.Duration { return vclock.Duration(s.End - s.Start) }

// Trace accumulates spans from all ranks of a run. It is unlocked: the
// world's one driver goroutine appends every rank's spans, and readers
// look at the trace after the run.
type Trace struct {
	spans []Span
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Add appends a span.
func (t *Trace) Add(s Span) {
	t.spans = append(t.spans, s)
}

// Spans returns all spans sorted by (rank, start time).
func (t *Trace) Spans() []Span {
	out := append([]Span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// ByRank returns rank p's spans in time order.
func (t *Trace) ByRank(p int) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Rank == p {
			out = append(out, s)
		}
	}
	return out
}

// Filter returns the spans of one kind, in (rank, time) order.
func (t *Trace) Filter(k Kind) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// BlockedTime sums rank p's blocked spans — the Twait MHETA's Equations
// 3 and 4 model.
func (t *Trace) BlockedTime(p int) vclock.Duration {
	var d vclock.Duration
	for _, s := range t.ByRank(p) {
		if s.Kind == SpanBlocked {
			d += s.Duration()
		}
	}
	return d
}

// Collector implements mpi.Profiler, recording blocked and I/O spans
// automatically; section/stage spans are added by the harness (exec wires
// this up when Options.Trace is set).
type Collector struct {
	T    *Trace
	Rank int
}

// Pre implements mpi.Profiler.
func (c *Collector) Pre(ci *mpi.CallInfo) {}

// Post implements mpi.Profiler.
func (c *Collector) Post(ci *mpi.CallInfo) {
	switch ci.Kind {
	case mpi.CallRecv, mpi.CallPrefetchWait:
		if ci.Wait > 0 {
			peer := 0
			if ci.Kind == mpi.CallRecv {
				peer = ci.Peer + 1 // sender rank, biased so 0 stays "none"
			}
			c.T.Add(Span{
				Rank:  c.Rank,
				Kind:  SpanBlocked,
				Label: ci.Kind.String(),
				Start: ci.End - vclock.Time(ci.Wait),
				End:   ci.End,
				Peer:  peer,
			})
		}
	case mpi.CallFileRead, mpi.CallFileWrite:
		c.T.Add(Span{
			Rank:  c.Rank,
			Kind:  SpanIO,
			Label: ci.Var,
			Start: ci.Start,
			End:   ci.End,
		})
	}
}

// Gantt renders the trace as a text chart: one row per rank, the given
// width in character cells, section spans as letters, blocked time as
// '.', I/O as '#' overlaid when it dominates a cell.
//
// Degenerate inputs render a placeholder line instead of panicking: an
// empty trace, a non-positive rank count or chart width, or a trace whose
// spans all sit at virtual time zero (nothing to scale against).
func (t *Trace) Gantt(ranks, width int) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(empty trace)\n"
	}
	if ranks <= 0 {
		return "(no ranks)\n"
	}
	if width <= 0 {
		return "(zero-width chart)\n"
	}
	var tmax vclock.Time
	for _, s := range spans {
		if s.End > tmax {
			tmax = s.End
		}
	}
	if tmax <= 0 {
		return "(zero-length trace)\n"
	}
	cell := func(ts vclock.Time) int {
		c := int(float64(ts) / float64(tmax) * float64(width))
		if c >= width {
			c = width - 1
		}
		return c
	}
	rows := make([][]byte, ranks)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	cellSpan := vclock.Time(float64(tmax) / float64(width))
	paint := func(s Span, ch byte, force bool) {
		if s.Rank < 0 || s.Rank >= ranks {
			return
		}
		for c := cell(s.Start); c <= cell(s.End-1e-12) && c < width; c++ {
			if force || rows[s.Rank][c] == ' ' {
				rows[s.Rank][c] = ch
			}
		}
	}
	// paintCovered marks only cells the span fully covers, so short
	// blocked slivers do not hide the section letters beneath them.
	paintCovered := func(s Span, ch byte) {
		if s.Rank < 0 || s.Rank >= ranks {
			return
		}
		for c := 0; c < width; c++ {
			cs := vclock.Time(c) * cellSpan
			ce := cs + cellSpan
			if s.Start <= cs && s.End >= ce {
				rows[s.Rank][c] = ch
			}
		}
	}
	// Sections first (letters A, B, C... by section index parsed from the
	// label), then IO and blocked overlays.
	for _, s := range spans {
		if s.Kind != SpanSection {
			continue
		}
		ch := byte('A')
		var si int
		if _, err := fmt.Sscanf(s.Label, "S%d", &si); err == nil {
			ch = byte('A' + si%26)
		}
		paint(s, ch, false)
	}
	for _, s := range spans {
		if s.Kind == SpanIO {
			paint(s, '#', true)
		}
	}
	for _, s := range spans {
		if s.Kind == SpanBlocked {
			paintCovered(s, '.')
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time 0 .. %.6fs (%d cells; letters=sections, #=I/O, .=blocked)\n", float64(tmax), width)
	for p := 0; p < ranks; p++ {
		fmt.Fprintf(&b, "rank %2d |%s|\n", p, rows[p])
	}
	return b.String()
}
