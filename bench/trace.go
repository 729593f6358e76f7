package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans are kept in memory and
// written as Chrome trace events when the run ends.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's origin
	parent     int   // index of the enclosing span, -1 for an operation
	op         int64 // operation id: stream index, run or point number
}

// tracer records spans from the benchmark's own goroutine. A nil
// *tracer records nothing, so the untraced replays share the code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for an operation's root span) and
// returns its handle for end.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.origin))
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n     int64
	total int64 // nanoseconds
}

// meanUS is the mean span duration in microseconds (0 without spans).
func (s spanStat) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

// traceStats summarises the recorded spans: per-name aggregates, and
// for each root-span name the summed self time of every span beneath
// roots of that name (a layer's self time is its duration minus the
// part its child spans cover).
type traceStats struct {
	byName map[string]spanStat
	under  map[string]int64
}

func (t *tracer) stats() traceStats {
	st := traceStats{byName: make(map[string]spanStat), under: make(map[string]int64)}
	if t == nil {
		return st
	}
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		self := s.end - s.start - childSum[i]
		a := st.byName[s.name]
		a.n++
		a.total += s.end - s.start
		st.byName[s.name] = a
		if s.parent >= 0 {
			root := s.parent
			for t.spans[root].parent >= 0 {
				root = t.spans[root].parent
			}
			st.under[t.spans[root].name] += self
		}
	}
	return st
}

// meanUS is the mean duration of the named spans in microseconds.
func (st traceStats) meanUS(name string) float64 { return st.byName[name].meanUS() }

// layerUS is the summed self time of the layer spans beneath the named
// root spans, per root span, in microseconds: the part of an operation
// the layer spans account for.
func (st traceStats) layerUS(root string) float64 {
	n := st.byName[root].n
	if n == 0 {
		return 0
	}
	return float64(st.under[root]) / float64(n) / 1e3
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata), the format Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeFile writes every span as a Chrome trace, one track per
// root-span name so operations of different kinds do not overlap.
func (t *tracer) writeChromeFile(path string) error {
	tracks := map[string]int{}
	var names []string
	for _, s := range t.spans {
		if s.parent < 0 {
			if _, ok := tracks[s.name]; !ok {
				tracks[s.name] = 0
				names = append(names, s.name)
			}
		}
	}
	sort.Strings(names)
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "mheta bench"}}}
	for i, n := range names {
		tracks[n] = i + 1
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": n}})
	}
	for _, s := range t.spans {
		root := s
		for root.parent >= 0 {
			root = t.spans[root.parent]
		}
		cat, _, _ := strings.Cut(s.name, ".")
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X", Pid: 1, Tid: tracks[root.name],
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
