// Package guarded_bad holds deliberate concurrency-contract violations
// the guarded analyzer must report.
package guarded_bad

import (
	"sync"
	"sync/atomic"
)

type Counter struct {
	mu sync.Mutex
	n  int //mheta:guardedby mu
}

func (c *Counter) Set(v int) {
	c.n = v // want `write to c.n requires holding c.mu`
}

func (c *Counter) Get() int {
	return c.n // want `read of c.n requires holding c.mu`
}

// Locked properly on one path, forgotten on the tail read.
func (c *Counter) HalfLocked() int {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	return v + c.n // want `read of c.n requires holding c.mu`
}

// The declared contract must be honored by callers.
//
//mheta:locks requires mu
func (c *Counter) setLocked(v int) {
	c.n = v
}

func (c *Counter) Careless(v int) {
	c.setLocked(v) // want `call to setLocked requires holding c.mu`
}

// bumpLocked declares nothing; its requirement is inferred bottom-up
// from the guarded access in its body.
func (c *Counter) bumpLocked() {
	c.n++
}

func (c *Counter) Loose() {
	c.bumpLocked() // want `call to bumpLocked requires holding c.mu`
}

// A guarded field used as a method receiver is a read of the field.
type Holder struct {
	mu sync.Mutex
	c  *Counter //mheta:guardedby mu
}

func (h *Holder) Reset() {
	h.c.Set(0) // want `read of h.c requires holding h.mu`
}

func (c *Counter) Oops() {
	c.mu.Unlock() // want `unlock of c.mu, which is not held here`
}

type Table struct {
	mu sync.RWMutex
	m  map[string]int //mheta:guardedby mu
}

// A read lock does not license writes.
func (t *Table) Put(k string, v int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.m[k] = v // want `write to t.m requires t.mu held for writing`
}

type Stats struct {
	hits  int64 //mheta:atomic
	mixed int64
}

func (s *Stats) Touch() {
	atomic.AddInt64(&s.hits, 1)
	s.hits = 3 // want `plain write of s.hits, which is //mheta:atomic`
}

func (s *Stats) A() {
	atomic.AddInt64(&s.mixed, 1)
}

func (s *Stats) B() {
	s.mixed = 2 // want `field mixed mixes sync/atomic and plain access`
}
