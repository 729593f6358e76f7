package leakcheck

// ExternalBlocking mirrors cross-package blocking contracts the same way
// units and guarded mirror theirs: the key is a *types.Func FullName, the
// value a short reason shown in the finding. A function listed here can
// block indefinitely, so a context-carrying caller that never consults
// its context before calling it gets a rule-C finding even though the
// callee's body lives in another package (where this analyzer, being
// package-local, cannot see the select or receive that blocks).
//
// Only functions whose blocking is NOT visible from their signature
// belong here — a callee that takes a context.Context is already
// recognized structurally. Keep entries sorted by key. No function in
// the tree needs an entry today: the emulator's receives park in its
// event scheduler rather than block a goroutine.
var ExternalBlocking = map[string]string{}
