// Package obs is the repo's lightweight observability layer: named
// counters, gauges, fixed-bucket histograms and convergence series behind
// a Registry that degrades to no-ops when absent.
//
// The design constraints come from the packages it instruments:
//
//   - Allocation-conscious. Instruments are resolved once (by name,
//     under a lock) and then updated lock-free with a single atomic per
//     operation, so a counter increment on the memo's warm path costs a
//     nil check plus one atomic add — and just the nil check when
//     observability is disabled.
//   - Disabled means free. A nil *Registry is fully usable: every
//     constructor returns a nil instrument and every instrument method
//     no-ops on a nil receiver. Call sites never branch on "is
//     observability on"; they hold possibly-nil instruments.
//   - Deterministic. obs is bound to the DESIGN.md §5.7 determinism
//     contract (it is listed in the linter's DeterministicPkgs): it never
//     reads wall clocks or ambient randomness, and every exporter
//     iterates its tables in sorted name order, so two runs of a
//     deterministic program produce byte-identical metric dumps. Anything
//     time-shaped recorded here (virtual durations, series steps) is
//     injected by the caller; wall-clock profiling belongs to the cmd/
//     layer (pprof), outside the deterministic boundary.
//   - Metrics stay outside the evaluated values. Instruments observe
//     scores, counts and sizes that the instrumented algorithms already
//     computed; nothing read back from an instrument may feed a search
//     decision or a prediction.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds a process- or run-scoped set of named instruments.
// A nil *Registry is the disabled state: all lookups return nil
// instruments whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   //mheta:guardedby mu
	gauges   map[string]*Gauge     //mheta:guardedby mu
	hists    map[string]*Histogram //mheta:guardedby mu
	series   map[string]*Series    //mheta:guardedby mu
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending; an implicit +Inf overflow bucket is
// appended) on first use. Later calls with the same name return the
// existing histogram regardless of bounds. Returns nil when r is nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Series returns the named series, creating it on first use. Returns nil
// when r is nil.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Counter is a monotonically increasing count. The zero value is ready;
// a nil *Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64. The zero value is ready; a nil
// *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Value returns the last value set (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets chosen at creation:
// bucket i counts observations <= Bounds[i]; one extra bucket counts the
// overflow. The bucket layout never changes after creation, so Observe is
// a binary search plus one atomic add. A nil *Histogram no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.sum.add(x)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Bounds returns the bucket upper bounds (no overflow entry). The slice
// is shared; callers must not modify it.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a copy of the per-bucket counts; the final entry
// is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// atomicFloat is a float64 accumulated with a CAS loop. Single-writer in
// practice (the hot paths add from one goroutine per instrument), but
// safe under contention.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(x float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Sample is one point of a Series.
type Sample struct {
	Step  int     `json:"step"`
	Value float64 `json:"value"`
}

// Series is an append-only sequence of (step, value) samples — the shape
// of a convergence curve: best score per GBS narrowing round, per genetic
// generation, per annealing step. A nil *Series no-ops.
type Series struct {
	mu      sync.Mutex
	samples []Sample //mheta:guardedby mu
}

// Append records one sample.
func (s *Series) Append(step int, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, Sample{Step: step, Value: v})
	s.mu.Unlock()
}

// Samples returns a copy of the recorded samples in append order.
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}
