package guarded

// lintkit compiles one package at a time and has no fact serialization,
// so guard specs and locking contracts cannot flow between packages
// automatically. This mirror declares them for the analyzer instead —
// the same pattern the units analyzer uses for cross-package dimension
// facts. Entries are verified to resolve against the real types at use
// sites; a stale entry simply stops matching and its protection lapses,
// so the guarded selfcheck test keeps these honest.
//
// The tree currently needs no entries: every annotated field in
// internal/search, internal/obs and internal/serve is unexported and
// only accessed from its own package, where inference and annotations
// cover it. The tables stay declared (and tested, see TestExternalMirror) so
// the first cross-package guarded field only needs an entry, not new
// machinery.

// Contract mirrors a //mheta:locks declaration for a function in
// another package. Lock names resolve against the callee's receiver
// type (or the callee package's scope); a "read:" prefix marks a
// requirement satisfied by a read lock.
type Contract struct {
	Requires []string
	Acquires []string
	Releases []string
}

// ExternalFields maps "pkgpath.Type.Field" to the name of the mutex
// field guarding it, for fields of other packages.
var ExternalFields = map[string]string{}

// ExternalFuncs maps a function's FullName — e.g.
// "(*mheta/internal/search.Memo).Evaluate" — to its locking contract,
// for callees in other packages.
var ExternalFuncs = map[string]Contract{}
