// Package guarded_bad holds deliberate lock-discipline violations the
// guarded analyzer must report.
package guarded_bad

import "sync"

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

// The declared contract must be honored by callers, and a goroutine
// spawned on it holds nothing.
//
//mheta:locks requires mu
func (c *Counter) setLocked(v int) {
	c.n = v
}

func (c *Counter) Careless(v int) {
	c.setLocked(v) // want `call to setLocked requires holding c.mu`
}

func (c *Counter) Async(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go c.setLocked(v) // want `go setLocked: a new goroutine holds none of its spawner's locks, but setLocked requires mu`
}

// An undeclared helper gets no contract: its own access is the finding.
func (c *Counter) bumpLocked() {
	c.n++ // want `read of c.n requires holding c.mu`
}

// A literal spawned while the lock is held runs on another goroutine,
// which does not hold it.
func (c *Counter) Fan() {
	c.mu.Lock()
	done := make(chan struct{})
	go func() {
		c.n++ // want `read of c.n requires holding c.mu`
		close(done)
	}()
	<-done
	c.mu.Unlock()
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

// Re-locking the same instance is an immediate self-deadlock.
func (c *Counter) Double() {
	c.mu.Lock()
	c.mu.Lock() // want `acquired while already held`
	c.mu.Unlock()
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

//mheta:locks requires mu
func (t *Table) putLocked(k string, v int) {
	t.m[k] = v
}

// Nor does it satisfy a requires contract.
func (t *Table) PutShared(k string, v int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.putLocked(k, v) // want `call to putLocked requires t.mu held for writing, but only a read lock is held`
}

//mheta:locks acquires mu // want `locks must read .requires <lock>...`
func (t *Table) lock() {
	t.mu.Lock()
}
