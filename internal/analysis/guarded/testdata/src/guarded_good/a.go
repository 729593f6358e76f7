// Package guarded_good exercises patterns the guarded analyzer must
// accept silently: plain lock/unlock, defer-unlock, RLock reads, a
// spawned literal that takes the lock itself, fresh constructors,
// declared //mheta:locks contracts, and reasoned suppressions.
package guarded_good

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int //mheta:guardedby mu
}

func (c *Counter) Bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *Counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Early return with an explicit unlock on each path.
func (c *Counter) GetOrInit() int {
	c.mu.Lock()
	if c.n != 0 {
		v := c.n
		c.mu.Unlock()
		return v
	}
	c.n = 42
	v := c.n
	c.mu.Unlock()
	return v
}

// A spawned literal starts with no locks, so it takes its own; the
// spawner's lock is not held on the goroutine.
func (c *Counter) Fan() {
	done := make(chan struct{})
	go func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
		close(done)
	}()
	<-done
}

// A reasoned suppression is honored.
func (c *Counter) Unverified() int {
	//lint:ignore guarded fixture demonstrates a reasoned suppression
	return c.n
}

// Freshly constructed values are unshared; no lock ceremony needed.
func Fresh() int {
	c := Counter{}
	c.n = 5
	return c.n
}

type Table struct {
	mu sync.RWMutex
	m  map[string]int //mheta:guardedby mu
}

func NewTable() *Table {
	t := &Table{}
	t.m = make(map[string]int)
	return t
}

func (t *Table) Get(k string) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.m[k]
	return v, ok
}

func (t *Table) Put(k string, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[k] = v
}

// putLocked is analyzed with mu held; every caller must hold it.
//
//mheta:locks requires mu
func (t *Table) putLocked(k string, v int) {
	t.m[k] = v
}

func (t *Table) PutTwo(k1, k2 string, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.putLocked(k1, v)
	t.putLocked(k2, v)
}

func (t *Table) Replace(k string, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, k)
	t.putLocked(k, v)
}
