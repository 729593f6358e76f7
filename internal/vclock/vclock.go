// Package vclock provides the virtual-time substrate that the emulated
// heterogeneous cluster runs on.
//
// The paper's experiments ran on real hardware and emulated heterogeneity
// one level up (extra work for slow CPUs, capped ICLAs for small memories,
// inflated transfer sizes for slow disks). This reproduction emulates one
// level lower: every rank owns a Clock that advances by modelled durations,
// and cross-rank interactions (messages, reductions) are ordered by the
// virtual timestamps those clocks produce. Durations are float64 seconds.
//
// Determinism matters: the experiment harness must regenerate the same
// figures on every run, so all perturbations come from seeded Noise
// streams rather than wall time or math/rand global state.
package vclock

import "fmt"

// Time is a point in virtual time, in seconds since the start of a run.
type Time float64 //mheta:units seconds

// Duration is a span of virtual time in seconds. Durations are never
// negative; operations that could produce a negative span clamp to zero.
type Duration float64 //mheta:units seconds

// Clock is a single rank's virtual clock. It is not safe for concurrent
// use; each rank owns exactly one Clock.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored so that modelled costs computed as
// differences can never move time backwards.
func (c *Clock) Advance(d Duration) Time {
	if d > 0 {
		c.now += Time(d)
	}
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the future; a clock
// never runs backwards. It returns the (possibly unchanged) current time.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// WaitUntil returns how long the clock would have to wait to reach t
// (zero if t is already in the past) and advances the clock to t.
func (c *Clock) WaitUntil(t Time) Duration {
	var w Duration
	if t > c.now {
		w = Duration(t - c.now)
		c.now = t
	}
	return w
}

// Reset rewinds the clock to zero. Used between emulated runs.
func (c *Clock) Reset() { c.now = 0 }

// String implements fmt.Stringer for debugging and trace output.
func (c *Clock) String() string { return fmt.Sprintf("vt=%.9fs", float64(c.now)) }

// Since returns the elapsed duration from t to the clock's current time,
// clamped at zero.
func (c *Clock) Since(t Time) Duration {
	if c.now <= t {
		return 0
	}
	return Duration(c.now - t)
}

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MaxDuration returns the longer of two durations.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// ClampDuration clamps d to be non-negative.
func ClampDuration(d Duration) Duration {
	if d < 0 {
		return 0
	}
	return d
}

// Seconds converts a Duration to float64 seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Milliseconds converts a Duration to float64 milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) * 1e3 }

// Seconds converts a Time to float64 seconds.
func (t Time) Seconds() float64 { return float64(t) }
