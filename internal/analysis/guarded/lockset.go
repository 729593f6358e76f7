package guarded

import (
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// held is one statically-held lock: a mutex reached by a field path from
// a root object (a receiver, parameter, local, or package-level
// variable). `m.mu.Lock()` in a method of Memo yields
// {root: m, path: "mu"}; a package-level `var mu sync.Mutex` yields
// {root: mu, path: ""}. Identity for lookups is (root, path) — the same
// lock expression spelled from the same variable — so locks never alias
// across distinct roots (two Memo values hold two different mus).
type held struct {
	root types.Object
	path string
	// write distinguishes Lock from RLock.
	write bool
	// deferred marks a pending `defer mu.Unlock()`: the lock is still
	// held for access checks but counts as released in exit summaries.
	deferred bool
}

func (h held) same(o held) bool { return h.root == o.root && h.path == o.path }

// id is the interning identity of one held lock.
func (h held) id() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(h.root.Pos())))
	b.WriteByte('/')
	b.WriteString(h.root.Name())
	if h.path != "" {
		b.WriteByte('.')
		b.WriteString(h.path)
	}
	if h.write {
		b.WriteString("/w")
	}
	if h.deferred {
		b.WriteString("/d")
	}
	return b.String()
}

// lockSet is an immutable, interned set of held locks. Interning makes
// the dataflow value comparable by pointer, which the engine's
// fixpoint-change detection requires; nil is the lattice bottom ("no
// information", distinct from the interned empty set "no locks held").
type lockSet struct {
	locks []held
}

// find looks a lock up by identity; the nil set holds nothing.
func (s *lockSet) find(root types.Object, path string) (held, bool) {
	if s == nil {
		return held{}, false
	}
	for _, l := range s.locks {
		if l.root == root && l.path == path {
			return l, true
		}
	}
	return held{}, false
}

// val is the dataflow value: guarded is a pure flow-state analysis, so
// the per-variable half is empty and only the Stateful lockset matters.
// The zero value is bottom (a Join identity), as the engine requires.
type val struct {
	ls *lockSet
}

// intern canonicalizes a lock list into the checker's set table.
func (c *checker) intern(locks []held) *lockSet {
	sort.Slice(locks, func(i, j int) bool { return locks[i].id() < locks[j].id() })
	ids := make([]string, len(locks))
	for i, l := range locks {
		ids[i] = l.id()
	}
	key := strings.Join(ids, "\x00")
	if s, ok := c.sets[key]; ok {
		return s
	}
	s := &lockSet{locks: locks}
	c.sets[key] = s
	return s
}

// withLock returns s plus l (replacing an existing same-identity lock).
func (c *checker) withLock(s *lockSet, l held) *lockSet {
	out := make([]held, 0, len(s.locks)+1)
	for _, h := range s.locks {
		if !h.same(l) {
			out = append(out, h)
		}
	}
	return c.intern(append(out, l))
}

// without returns s minus the (root, path) lock.
func (c *checker) without(s *lockSet, root types.Object, path string) *lockSet {
	out := make([]held, 0, len(s.locks))
	for _, h := range s.locks {
		if !(h.root == root && h.path == path) {
			out = append(out, h)
		}
	}
	return c.intern(out)
}

// markDeferred returns s with the (root, path) lock flagged as having a
// pending deferred release.
func (c *checker) markDeferred(s *lockSet, root types.Object, path string) *lockSet {
	out := make([]held, 0, len(s.locks))
	for _, h := range s.locks {
		if h.root == root && h.path == path {
			h.deferred = true
		}
		out = append(out, h)
	}
	return c.intern(out)
}

// joinSets intersects two locksets at a control-flow merge: a lock is
// held after the join only if it is held on both paths, read-held unless
// write-held on both, deferred-released if either path deferred it. nil
// (bottom) is the join identity.
func (c *checker) joinSets(a, b *lockSet) *lockSet {
	if a == nil {
		return b
	}
	if b == nil || a == b {
		return a
	}
	var out []held
	for _, l := range a.locks {
		if o, ok := b.find(l.root, l.path); ok {
			l.write = l.write && o.write
			l.deferred = l.deferred || o.deferred
			out = append(out, l)
		}
	}
	return c.intern(out)
}
