package exec

import (
	"runtime"
	"sync"
)

// arenas keeps the arenas of finished recycling runs (Options.Recycle)
// for the next runs to take. A dataset's worth of fresh allocation per
// run is what made a sweep's peak RSS depend on GC timing: a collection
// whose mark spanned two runs counted both datasets live and doubled its
// heap goal. Like a sync.Pool, the list lets the collector have an arena
// that stays idle across two collections, so an idle process keeps none;
// unlike one, it has no per-P slots, which made a run that had moved to
// another P miss the pooled arena and allocate a second.
var arenas arenaPool

type arenaPool struct {
	mu   sync.Mutex
	free []idleArena //mheta:guardedby mu
	// primed is set when a recycling run ends without an arena, and
	// cleared by DropArenas. Only a primed pool makes a new arena, so
	// a one-off run lays its arrays out rank by rank like a plain run:
	// one allocation of a whole dataset in a fresh process raises the
	// heap goal at once, where rank-sized ones let collections run in
	// between.
	primed bool //mheta:guardedby mu
}

// idleArena is a pooled arena; aged is set by the first collection that
// finds it idle.
type idleArena struct {
	b    []byte
	aged bool
}

// takeArena returns n bytes of a pooled arena, or of a new one with an
// eighth to spare (so that a slightly larger dataset fits it too) if the
// pool is primed, or nil. The bytes are not zeroed.
func takeArena(n int64) []byte {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	for i, a := range arenas.free {
		if int64(cap(a.b)) >= n {
			last := len(arenas.free) - 1
			arenas.free[i] = arenas.free[last]
			arenas.free[last] = idleArena{}
			arenas.free = arenas.free[:last]
			return a.b[:n]
		}
	}
	if !arenas.primed {
		return nil
	}
	return make([]byte, n, n+n/8)
}

// putArena ends a recycling run: it pools the run's arena, or primes
// the pool if the run had none.
func putArena(b []byte) {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	if b == nil {
		arenas.primed = true
		return
	}
	arenas.free = append(arenas.free, idleArena{b: b})
}

// DropArenas empties and unprimes the pool, so that the collector has
// every idle arena at its next collection. A process calls it when it
// has finished its recycling runs and goes on to other work, where a
// pooled arena would count as live heap and raise the heap goal: a
// server that has just built a model, say.
func DropArenas() {
	arenas.mu.Lock()
	clear(arenas.free)
	arenas.free = arenas.free[:0]
	arenas.primed = false
	arenas.mu.Unlock()
}

// ageArenas runs after each collection: it drops the arenas that were
// already idle at the previous one and marks the rest.
func ageArenas() {
	arenas.mu.Lock()
	kept := arenas.free[:0]
	for _, a := range arenas.free {
		if !a.aged {
			kept = append(kept, idleArena{b: a.b, aged: true})
		}
	}
	clear(arenas.free[len(kept):])
	arenas.free = kept
	arenas.mu.Unlock()
}

// gcTick is a sentinel whose finalizer runs once after each collection:
// it ages the pooled arenas and arms the next sentinel. The pointer
// field keeps it off the tiny allocator, whose objects may never be
// finalized.
type gcTick struct{ _ *byte }

func armGCTick() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		ageArenas()
		armGCTick()
	})
}

func init() { armGCTick() }
