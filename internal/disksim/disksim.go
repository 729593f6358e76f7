// Package disksim models each node's local disk.
//
// The paper's cost model for I/O (§4.1.1, §4.2.1) uses four per-node /
// per-variable quantities: seek overheads for reads and writes (Or, Ow),
// which are the same regardless of the variable, and per-element latencies
// (Lr(v), Lw(v)), which are variable-specific because element sizes and
// access patterns differ. disksim charges exactly those costs against a
// rank's virtual clock, stores the bytes so applications compute real
// results, and implements the asynchronous prefetch engine whose overlap
// semantics Equation 2 models — including the Figure 5 instrumentation
// transform (prefetch issue → blocking read, wait → no-op).
package disksim

import (
	"fmt"
	"sort"
	"sync"

	"mheta/internal/vclock"
)

// Params describes one node's disk: ReadSeek/WriteSeek are the paper's
// Or/Ow fixed per-call overheads, ReadPerByte/WritePerByte its streaming
// latencies, and IssueCost is To, the CPU cost of issuing an async
// prefetch. The per-byte fields are stored as vclock.Duration for
// clock arithmetic but are dimensionally s/byte; the directives
// override the type's intrinsic seconds.
type Params struct {
	ReadSeek     vclock.Duration //mheta:units seconds
	WriteSeek    vclock.Duration //mheta:units seconds
	ReadPerByte  vclock.Duration //mheta:units s/byte
	WritePerByte vclock.Duration //mheta:units s/byte
	IssueCost    vclock.Duration //mheta:units seconds
}

// DefaultParams returns costs typical of a circa-2005 commodity IDE disk:
// ~8 ms seek+rotational overhead, ~35 MB/s streaming reads, ~30 MB/s
// writes, ~120 µs to issue an async request.
func DefaultParams() Params {
	return Params{
		ReadSeek:     8e-3,
		WriteSeek:    9e-3,
		ReadPerByte:  vclock.Duration(1.0 / 35e6),
		WritePerByte: vclock.Duration(1.0 / 30e6),
		IssueCost:    120e-6,
	}
}

// Scale returns a copy of p with all latencies multiplied by f. The
// cluster configurations use this to emulate slower or faster disks
// ("differing I/O speeds", §5.1).
//
//mheta:units ratio f
func (p Params) Scale(f float64) Params {
	return Params{
		ReadSeek:     vclock.Duration(float64(p.ReadSeek) * f),
		WriteSeek:    vclock.Duration(float64(p.WriteSeek) * f),
		ReadPerByte:  vclock.Duration(float64(p.ReadPerByte) * f),
		WritePerByte: vclock.Duration(float64(p.WritePerByte) * f),
		IssueCost:    p.IssueCost, // CPU-side cost, not disk speed
	}
}

// ReadCost returns Or + bytes·Lr.
//
//mheta:units bytes bytes
//mheta:units seconds return
func (p Params) ReadCost(bytes int) vclock.Duration {
	return p.ReadSeek + vclock.Duration(bytes)*p.ReadPerByte
}

// WriteCost returns Ow + bytes·Lw.
//
//mheta:units bytes bytes
//mheta:units seconds return
func (p Params) WriteCost(bytes int) vclock.Duration {
	return p.WriteSeek + vclock.Duration(bytes)*p.WritePerByte
}

// Mode selects how asynchronous operations behave.
type Mode int

const (
	// ModeNormal runs prefetches asynchronously: the issue charges only
	// IssueCost to the CPU and the disk works in the background.
	ModeNormal Mode = iota
	// ModeInstrument applies the Figure 5 transform: prefetch issues
	// become blocking reads and waits become no-ops, so the instrumented
	// iteration can measure read latency and overlap computation
	// precisely. The extra latency is paid once and amortised over the
	// remaining (non-instrumented) iterations, exactly as in the paper.
	ModeInstrument
)

// Disk is one node's local disk: a named-extent byte store plus a timing
// model with a single service queue (the disk is busy until the last
// queued request completes; a new request starts at max(now, busyUntil)).
//
// Disk methods take the owning rank's clock explicitly so that the same
// Disk can be driven by instrumented and plain runs. A Disk is owned by
// one rank goroutine; the store is additionally protected by a mutex so
// verification code may inspect it after a run.
type Disk struct {
	params Params
	noise  *vclock.Noise
	// contention is the shared-disk slowdown factor (§3.2 extension: a
	// global disk shared by all processors, modelled as fair bandwidth
	// sharing — each of k concurrently streaming nodes sees the disk k×
	// slower). 1 for a private commodity disk.
	contention float64 //mheta:units ratio

	// mu guards only the extent store: timing state below it is owned by
	// the rank goroutine, but verification code (tests, the experiment
	// harness) inspects extents while other ranks may still be writing.
	mu    sync.Mutex
	store map[string][]byte //mheta:guardedby mu

	busyUntil vclock.Time
	pending   map[int]*pendingRead
	nextTag   int
	mode      Mode

	// Counters for tests and the experiment harness.
	Reads, Writes, Prefetches int
	BytesRead, BytesWritten   int64
}

type pendingRead struct {
	name     string
	off, n   int
	complete vclock.Time
}

// New builds a disk with the given parameters. A nil noise stream
// disables perturbation. The extent store and the prefetch table are
// created on first use: most ranks of a large emulation never prefetch.
func New(p Params, noise *vclock.Noise) *Disk {
	return &Disk{
		params:     p,
		noise:      noise,
		contention: 1,
	}
}

// SetContention sets the shared-disk slowdown factor (≥1); see the
// contention field. It affects disk service times, not the CPU-side
// prefetch issue cost.
func (d *Disk) SetContention(k float64) {
	if k < 1 {
		k = 1
	}
	d.contention = k
}

// Contention reports the current factor.
func (d *Disk) Contention() float64 { return d.contention }

// Params returns the disk's configured cost parameters.
func (d *Disk) Params() Params { return d.params }

// SetMode switches between normal and instrumented behaviour.
func (d *Disk) SetMode(m Mode) { d.mode = m }

// GetMode reports the current mode.
func (d *Disk) GetMode() Mode { return d.mode }

// Create allocates (or reallocates) a named extent of n bytes, zeroed.
func (d *Disk) Create(name string, n int) { d.Store(name, make([]byte, n)) }

// Store makes data the named extent without charging any time. It is
// used to lay out initial datasets "already on disk" before a run starts,
// matching the paper's Local Placement rule (each node's block starts on
// its local disk), and to flush in-core arrays after one.
//
// Store takes ownership of data instead of copying it: the caller must
// not touch the slice afterwards. Every caller hands over a buffer it has
// just built or is finished with. Read, PrefetchWait and Extent still
// return copies, so nothing the disk hands out aliases the extent.
func (d *Disk) Store(name string, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store == nil {
		d.store = make(map[string][]byte)
	}
	d.store[name] = data
}

// Extent returns a copy of the named extent, or nil if absent. Test and
// verification helper; charges no time.
func (d *Disk) Extent(name string) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.store[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), b...)
}

// Extents returns the sorted names of all extents on the disk.
func (d *Disk) Extents() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.store))
	for k := range d.store {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Size returns the size in bytes of the named extent (0 if absent).
func (d *Disk) Size(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.store[name])
}

func (d *Disk) slice(name string, off, n int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.store[name]
	if !ok {
		panic(fmt.Sprintf("disksim: read of missing extent %q", name))
	}
	if off < 0 || n < 0 || off+n > len(b) {
		panic(fmt.Sprintf("disksim: read [%d,%d) out of extent %q (len %d)", off, off+n, name, len(b)))
	}
	return b[off : off+n]
}

func (d *Disk) perturb(c vclock.Duration) vclock.Duration {
	c = vclock.Duration(float64(c) * d.contention)
	if d.noise == nil {
		return c
	}
	return d.noise.Perturb(c)
}

// serviceTime computes when a request issued at 'issue' taking 'cost'
// completes, accounting for the disk being busy with earlier requests,
// and marks the disk busy until then.
func (d *Disk) serviceTime(issue vclock.Time, cost vclock.Duration) vclock.Time {
	start := vclock.MaxTime(issue, d.busyUntil)
	done := start + vclock.Time(cost)
	d.busyUntil = done
	return done
}

// Read synchronously reads n bytes at off from the named extent, charging
// Or + n·Lr against clk (plus disk-queue delay). It returns the bytes read
// and the charged duration (used by the instrumentation hooks).
func (d *Disk) Read(clk *vclock.Clock, name string, off, n int) ([]byte, vclock.Duration) {
	data := append([]byte(nil), d.slice(name, off, n)...)
	return data, d.readWait(clk, n)
}

// ReadInto is Read into dst instead of a fresh buffer: it reads
// len(dst) bytes at off with the same timing, for callers that reuse one
// buffer across reads.
func (d *Disk) ReadInto(clk *vclock.Clock, name string, off int, dst []byte) vclock.Duration {
	copy(dst, d.slice(name, off, len(dst)))
	return d.readWait(clk, len(dst))
}

// readWait charges a synchronous n-byte read against clk and returns the
// charged duration. The caller has already checked the extent bounds.
func (d *Disk) readWait(clk *vclock.Clock, n int) vclock.Duration {
	cost := d.perturb(d.params.ReadCost(n))
	done := d.serviceTime(clk.Now(), cost)
	start := clk.Now()
	clk.AdvanceTo(done)
	d.Reads++
	d.BytesRead += int64(n)
	return clk.Since(start)
}

// Write synchronously writes data at off into the named extent, charging
// Ow + len·Lw against clk. It returns the charged duration.
func (d *Disk) Write(clk *vclock.Clock, name string, off int, data []byte) vclock.Duration {
	d.mu.Lock()
	b, ok := d.store[name]
	if !ok || off < 0 || off+len(data) > len(b) {
		d.mu.Unlock()
		panic(fmt.Sprintf("disksim: write [%d,%d) out of extent %q", off, off+len(data), name))
	}
	copy(b[off:], data)
	d.mu.Unlock()
	cost := d.perturb(d.params.WriteCost(len(data)))
	done := d.serviceTime(clk.Now(), cost)
	start := clk.Now()
	clk.AdvanceTo(done)
	d.Writes++
	d.BytesWritten += int64(len(data))
	return clk.Since(start)
}

// PrefetchIssue starts an asynchronous read and returns a tag for Wait.
//
// In ModeNormal the CPU is charged only IssueCost; the read itself
// proceeds in the background and completes at max(now, diskBusy) + cost.
// In ModeInstrument the issue degrades to a blocking synchronous read
// (Figure 5) so its latency is measurable by the pre/post hooks; Wait
// then returns immediately.
func (d *Disk) PrefetchIssue(clk *vclock.Clock, name string, off, n int) int {
	tag := d.nextTag
	d.nextTag++
	d.Prefetches++
	if d.mode == ModeInstrument {
		d.slice(name, off, n) // bounds check; PrefetchWait copies the data
		d.readWait(clk, n)
		d.track(tag, &pendingRead{name: name, off: off, n: n, complete: clk.Now()})
		return tag
	}
	clk.Advance(d.params.IssueCost)
	cost := d.perturb(d.params.ReadCost(n))
	complete := d.serviceTime(clk.Now(), cost)
	d.BytesRead += int64(n)
	d.Reads++
	d.track(tag, &pendingRead{name: name, off: off, n: n, complete: complete})
	return tag
}

// track records an issued prefetch, creating the table on first use.
func (d *Disk) track(tag int, p *pendingRead) {
	if d.pending == nil {
		d.pending = make(map[int]*pendingRead)
	}
	d.pending[tag] = p
}

// PrefetchWait blocks (in virtual time) until the prefetch identified by
// tag completes, returns the data, and reports how long the rank actually
// waited (zero when computation fully masked the latency — the Le = 0 case
// of Equation 2). In ModeInstrument the wait is a no-op because the issue
// already blocked.
func (d *Disk) PrefetchWait(clk *vclock.Clock, tag int) ([]byte, vclock.Duration) {
	p, ok := d.pending[tag]
	if !ok {
		panic(fmt.Sprintf("disksim: wait on unknown prefetch tag %d", tag))
	}
	delete(d.pending, tag)
	var waited vclock.Duration
	if d.mode != ModeInstrument {
		waited = clk.WaitUntil(p.complete)
	}
	return append([]byte(nil), d.slice(p.name, p.off, p.n)...), waited
}

// OutstandingPrefetches reports how many issued prefetches have not been
// waited on. Applications must drain all prefetches before a stage ends.
func (d *Disk) OutstandingPrefetches() int { return len(d.pending) }

// ResetTiming clears the service queue and counters between runs without
// discarding stored data.
func (d *Disk) ResetTiming() {
	d.busyUntil = 0
	clear(d.pending)
	d.nextTag = 0
	d.Reads, d.Writes, d.Prefetches = 0, 0, 0
	d.BytesRead, d.BytesWritten = 0, 0
}
