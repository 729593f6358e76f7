// Package guarded implements the mheta-lint concurrency-contract
// analyzer: a lockset dataflow proving that struct fields annotated
// `//mheta:guardedby <mutexField>` are only read or written while the
// named sibling mutex is statically held, and that fields annotated
// `//mheta:atomic` are only touched through sync/atomic.
//
// The analysis instantiates lintkit's dataflow engine with an
// intersection lattice of held locks (DESIGN.md §5.14): Lock/RLock add
// a lock to the flow state, Unlock/RUnlock remove one, `defer
// mu.Unlock()` marks it released-at-exit but held for the remainder of
// the function, and control-flow joins intersect the locksets of the
// merging paths. Lock identity is the access path from a root variable
// (`m.mu` in a method of Memo), so two Memo values never share a lock.
//
// Interprocedural behaviour comes from per-function contracts —
// `//mheta:locks requires|acquires|releases <lock>` in a function's doc
// comment — plus bottom-up inference over the package call graph for
// unexported functions that don't declare one: an unexported helper
// that touches guarded receiver fields without locking is inferred to
// *require* the guard, and the requirement is enforced at its call
// sites. Exported functions get no inferred requirement: an unguarded
// access in one is reported at the access itself, since outside callers
// cannot know an undeclared contract. Cross-package contracts travel
// through the external.go mirror (lintkit has no fact serialization).
//
// Two whole-package checks ride on the same state: a mixed-access check
// (a field touched both through sync/atomic and plainly, without an
// annotation resolving the intent) and a lock-acquisition-order graph
// whose cycles are reported as potential deadlocks.
//
// Deliberate approximations, all warn-only: TryLock is not modeled (its
// success is a branch condition), sync.Cond.Wait is treated as keeping
// the lock held (matching the annotation intent of condition loops),
// conditional locking (`if locked { mu.Unlock() }`) loses the lock at
// the join, locks reached through embedded-struct field promotion are
// not matched, and a `go`-spawned literal inherits the spawn point's
// lockset (fork-join-under-lock).
package guarded

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mheta/internal/analysis/lintkit"
	"mheta/internal/analysis/lintkit/dataflow"
)

// Analyzer is the guarded analyzer, for registration with lintkit.
var Analyzer = &lintkit.Analyzer{
	Name: "guarded",
	Doc:  "check //mheta:guardedby and //mheta:atomic field discipline via lockset dataflow, //mheta:locks contracts, and lock-acquisition order",
	Run:  run,
}

func run(pass *lintkit.Pass) (any, error) {
	c := newChecker(pass)
	c.collect()
	c.validate()
	graph := lintkit.NewCallGraph(pass.Files, pass.TypesInfo)
	// Phase 1: bottom-up summary inference, reporting off. Each
	// component sees its callees' contracts (declared or just inferred).
	c.inferring = true
	for _, scc := range graph.BottomUp() {
		for _, fn := range scc {
			c.analyze(fn, graph.Decls[fn])
		}
	}
	c.inferring = false
	// Phase 2: reporting, in source order for stable diagnostics.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.analyze(fn, fd)
				}
			}
		}
	}
	c.reportOrderCycles()
	c.reportAtomicMixing()
	return nil, nil
}

// guardInfo is one field's protection: the dotted path of its mutex
// within the same struct, and whether that mutex is an RWMutex (reads
// may then hold only RLock).
type guardInfo struct {
	muPath string
	rw     bool
}

// lockRef is one lock named by a contract, relative to the function's
// receiver (or a package-level mutex variable). read marks a
// `read:`-prefixed name: holding RLock satisfies it.
type lockRef struct {
	name string
	read bool
}

// contract is a function's locking contract, declared via //mheta:locks
// or inferred bottom-up for unexported functions.
type contract struct {
	declared bool
	requires []lockRef
	acquires []lockRef
	releases []lockRef
}

type checker struct {
	pass   *lintkit.Pass
	interp *dataflow.Interp[val]

	directives []lintkit.Directive
	// consumed tracks directive positions attached to a field or
	// function, so strays can be reported by validate.
	consumed map[token.Pos]bool

	// guards maps each //mheta:guardedby field to its protection.
	guards map[*types.Var]guardInfo
	// atomics holds //mheta:atomic fields of plain integer type, whose
	// every access must go through sync/atomic.
	atomics map[*types.Var]bool
	// typedAtomics holds //mheta:atomic fields already of an atomic.*
	// type; the type system enforces their discipline, so the
	// annotation is documentation and they are exempt from checks.
	typedAtomics map[*types.Var]bool
	// extGuards caches cross-package guard lookups (nil = unguarded).
	extGuards map[*types.Var]*guardInfo

	contracts    map[*types.Func]*contract
	extContracts map[*types.Func]*contract

	// sets interns locksets so the dataflow value is pointer-comparable.
	sets map[string]*lockSet

	codeLines map[string]map[int]bool
	seen      map[string]bool
	// accessSeen deduplicates access diagnostics by (position, field) so
	// an op-assign reports once, not as both a read and a write.
	accessSeen map[string]bool

	// atomicCtx marks selector positions that appear as &x.f arguments
	// to sync/atomic calls; the access check treats those as sanctioned.
	// Positions are stable across engine re-walks, so entries stick.
	atomicCtx map[token.Pos]bool
	atomicUse map[*types.Var]token.Pos
	plainUse  map[*types.Var]token.Pos

	// edges is the lock-acquisition-order graph over type-qualified lock
	// names, first acquisition position per directed edge.
	edges map[[2]string]token.Pos

	inferring bool

	// Per-declaration state.
	curNode ast.Node
	recvObj types.Object
	entryLS *lockSet
	// fresh marks locals bound to freshly constructed values (composite
	// literals, new(T)); accesses rooted at them are unshared and
	// exempt, which keeps constructors annotation-free.
	fresh map[types.Object]bool
	// needs accumulates inferred lock requirements during phase 1.
	needs map[string]lockRef
	exits []*lockSet
}

func newChecker(pass *lintkit.Pass) *checker {
	c := &checker{
		pass:         pass,
		consumed:     map[token.Pos]bool{},
		guards:       map[*types.Var]guardInfo{},
		atomics:      map[*types.Var]bool{},
		typedAtomics: map[*types.Var]bool{},
		extGuards:    map[*types.Var]*guardInfo{},
		contracts:    map[*types.Func]*contract{},
		extContracts: map[*types.Func]*contract{},
		sets:         map[string]*lockSet{},
		seen:         map[string]bool{},
		accessSeen:   map[string]bool{},
		atomicCtx:    map[token.Pos]bool{},
		atomicUse:    map[*types.Var]token.Pos{},
		plainUse:     map[*types.Var]token.Pos{},
		edges:        map[[2]string]token.Pos{},
	}
	c.interp = &dataflow.Interp[val]{Info: pass.TypesInfo, Sem: c}
	return c
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.inferring {
		return
	}
	p := c.pass.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	key := p.String() + "\x00" + msg
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.pass.Report(lintkit.Diagnostic{Pos: pos, Message: msg})
}

// ---- annotation collection ----

func (c *checker) collect() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, d := range lintkit.ParseDirectives(f) {
			if d.Kind == "mheta" {
				c.directives = append(c.directives, d)
			}
		}
	}
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc == nil {
					continue
				}
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				for _, dir := range c.directives {
					if dir.Name == "locks" && dir.Pos >= d.Doc.Pos() && dir.Pos < d.Doc.End() {
						c.consumed[dir.Pos] = true
						c.addContractLine(fn, dir)
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
						c.collectStruct(tn, st)
					}
				}
			}
		}
	}
}

func (c *checker) collectStruct(tn *types.TypeName, st *ast.StructType) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			fv, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			pos := c.pass.Fset.Position(name.Pos())
			for _, d := range c.directivesAt(pos, "guardedby") {
				c.consumed[d.Pos] = true
				args := strings.Fields(d.Args)
				if len(args) != 1 {
					c.reportf(d.Pos, "//mheta:guardedby needs exactly one mutex field name")
					continue
				}
				_, rw, _, ok := c.resolveLockPath(tn.Type(), args[0])
				if !ok {
					c.reportf(d.Pos, "//mheta:guardedby names no mutex field %q in %s", args[0], tn.Name())
					continue
				}
				c.guards[fv] = guardInfo{muPath: args[0], rw: rw}
			}
			for _, d := range c.directivesAt(pos, "atomic") {
				c.consumed[d.Pos] = true
				if strings.TrimSpace(d.Args) != "" {
					c.reportf(d.Pos, "//mheta:atomic takes no arguments")
				}
				switch {
				case isAtomicType(fv.Type()):
					c.typedAtomics[fv] = true
				case atomicAccessible(fv.Type()):
					c.atomics[fv] = true
				default:
					c.reportf(d.Pos, "//mheta:atomic field %s has type %s, which sync/atomic cannot access", fv.Name(), fv.Type())
				}
			}
		}
	}
}

func (c *checker) addContractLine(fn *types.Func, d lintkit.Directive) {
	fields := strings.Fields(d.Args)
	if len(fields) < 2 {
		c.reportf(d.Pos, "//mheta:locks needs a verb (requires, acquires, releases) and at least one lock name")
		return
	}
	verb := fields[0]
	if verb != "requires" && verb != "acquires" && verb != "releases" {
		c.reportf(d.Pos, "//mheta:locks verb must be requires, acquires, or releases (got %q)", verb)
		return
	}
	ct := c.contracts[fn]
	if ct == nil || !ct.declared {
		ct = &contract{declared: true}
		c.contracts[fn] = ct
	}
	for _, name := range fields[1:] {
		ref := lockRef{name: name}
		if rest, isRead := strings.CutPrefix(name, "read:"); isRead {
			ref = lockRef{name: rest, read: true}
		}
		if !c.lockNameValid(fn, ref.name) {
			c.reportf(d.Pos, "//mheta:locks names unknown lock %q (not a mutex field of the receiver or a package-level mutex)", ref.name)
			continue
		}
		switch verb {
		case "requires":
			ct.requires = append(ct.requires, ref)
		case "acquires":
			ct.acquires = append(ct.acquires, ref)
		case "releases":
			ct.releases = append(ct.releases, ref)
		}
	}
}

func (c *checker) lockNameValid(fn *types.Func, name string) bool {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, _, _, ok := c.resolveLockPath(sig.Recv().Type(), name); ok {
			return true
		}
	}
	if !strings.Contains(name, ".") {
		if v, ok := c.pass.Pkg.Scope().Lookup(name).(*types.Var); ok {
			if _, isMu := mutexKind(v.Type()); isMu {
				return true
			}
		}
	}
	return false
}

// validate reports directives that attached to nothing.
func (c *checker) validate() {
	for _, d := range c.directives {
		if c.consumed[d.Pos] {
			continue
		}
		switch d.Name {
		case "guardedby":
			c.reportf(d.Pos, "//mheta:guardedby must sit on a struct field (same line or the line above)")
		case "atomic":
			c.reportf(d.Pos, "//mheta:atomic must sit on a struct field (same line or the line above)")
		case "locks":
			c.reportf(d.Pos, "//mheta:locks belongs in a function's doc comment")
		}
	}
}

// directivesAt returns the //mheta:<name> directives annotating a
// declaration at pos: on the same line, or alone on the line above.
func (c *checker) directivesAt(pos token.Position, name string) []lintkit.Directive {
	var out []lintkit.Directive
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if line != pos.Line && c.lineHasCode(pos.Filename, line) {
			// The previous line's trailing directive belongs to that
			// line's own declarations.
			continue
		}
		for _, d := range c.directives {
			if d.Name != name {
				continue
			}
			dp := c.pass.Fset.Position(d.Pos)
			if dp.Filename == pos.Filename && dp.Line == line {
				out = append(out, d)
			}
		}
	}
	return out
}

// lineHasCode reports whether any syntax node starts on the given line
// of the given file (comments excluded).
func (c *checker) lineHasCode(filename string, line int) bool {
	m, ok := c.codeLines[filename]
	if !ok {
		m = make(map[int]bool)
		for _, f := range c.pass.Files {
			if c.pass.Fset.Position(f.Pos()).Filename != filename {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case nil:
					return false
				case *ast.Comment, *ast.CommentGroup:
					return false
				}
				m[c.pass.Fset.Position(n.Pos()).Line] = true
				return true
			})
		}
		if c.codeLines == nil {
			c.codeLines = make(map[string]map[int]bool)
		}
		c.codeLines[filename] = m
	}
	return m[line]
}

// ---- per-function driver ----

func (c *checker) analyze(fn *types.Func, fd *ast.FuncDecl) {
	if fd == nil || fd.Body == nil {
		return
	}
	c.curNode = fd
	c.recvObj = nil
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		c.recvObj, _ = c.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	}
	c.fresh = map[types.Object]bool{}
	c.needs = map[string]lockRef{}
	c.exits = nil
	c.entryLS = c.entrySet(fn)
	c.interp.Func(fd)
	if c.inferring {
		c.finishInference(fn)
	}
	c.curNode = nil
}

// entrySet is the lockset assumed held at function entry: the declared
// requires, or — in the reporting phase, for unexported functions — the
// inferred ones, whose violations are then reported at call sites.
// Exported functions without a declaration start lock-free, so their
// unguarded accesses are reported at the access itself.
func (c *checker) entrySet(fn *types.Func) *lockSet {
	var locks []held
	for _, ref := range c.entryRefs(fn) {
		if h, ok := c.resolveEntryRef(ref); ok {
			locks = append(locks, h)
		}
	}
	return c.intern(locks)
}

func (c *checker) entryRefs(fn *types.Func) []lockRef {
	ct := c.contracts[fn]
	if ct == nil {
		return nil
	}
	if ct.declared || (!c.inferring && !c.isBoundary(fn)) {
		return ct.requires
	}
	return nil
}

func (c *checker) resolveEntryRef(ref lockRef) (held, bool) {
	if c.recvObj != nil {
		if _, _, tk, ok := c.resolveLockPath(c.recvObj.Type(), ref.name); ok {
			return held{root: c.recvObj, path: ref.name, typeKey: tk, write: !ref.read}, true
		}
	}
	if !strings.Contains(ref.name, ".") {
		if v, ok := c.pass.Pkg.Scope().Lookup(ref.name).(*types.Var); ok {
			if _, isMu := mutexKind(v.Type()); isMu {
				return held{root: v, path: "", typeKey: c.pass.PkgPath + "." + v.Name(), write: !ref.read}, true
			}
		}
	}
	return held{}, false
}

// finishInference turns phase-1 observations into an inferred contract:
// unmet receiver-rooted (or package-level) lock needs become requires,
// locks still held at exit become acquires, entry locks released become
// releases. A declared contract is never overwritten.
func (c *checker) finishInference(fn *types.Func) {
	if ct := c.contracts[fn]; ct != nil && ct.declared {
		return
	}
	inf := &contract{}
	names := make([]string, 0, len(c.needs))
	for n := range c.needs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		inf.requires = append(inf.requires, c.needs[n])
	}
	var exit *lockSet
	for _, e := range c.exits {
		exit = c.joinSets(exit, e)
	}
	if exit != nil {
		for _, l := range exit.locks {
			if l.deferred {
				continue
			}
			if _, atEntry := c.entryLS.find(l.root, l.path); atEntry {
				continue
			}
			if ref, ok := c.refOf(l); ok {
				inf.acquires = append(inf.acquires, ref)
			}
		}
		for _, l := range c.entryLS.locks {
			if _, still := exit.find(l.root, l.path); !still {
				if ref, ok := c.refOf(l); ok {
					inf.releases = append(inf.releases, ref)
				}
			}
		}
	}
	if len(inf.requires)+len(inf.acquires)+len(inf.releases) > 0 {
		c.contracts[fn] = inf
	}
}

// refOf expresses a held lock as a contract reference, when it is
// rooted at the current receiver or a package-level mutex.
func (c *checker) refOf(l held) (lockRef, bool) {
	if c.recvObj != nil && l.root == c.recvObj {
		return lockRef{name: l.path, read: !l.write}, true
	}
	if l.path == "" && l.root.Parent() == c.pass.Pkg.Scope() {
		return lockRef{name: l.root.Name(), read: !l.write}, true
	}
	return lockRef{}, false
}

// need records an inferred lock requirement; a write need subsumes a
// read need for the same lock.
func (c *checker) need(ref lockRef) {
	if old, ok := c.needs[ref.name]; ok && !old.read {
		return
	}
	c.needs[ref.name] = ref
}

// isBoundary reports whether fn is part of the package's exported
// surface (an exported function, or an exported method on an exported
// type), where inferred requirements must not be assumed.
func (c *checker) isBoundary(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return n.Obj().Exported()
		}
	}
	return true
}

// ---- access checking ----

// state is the lockset at the current program point.
func (c *checker) state() *lockSet { return c.interp.State().ls }

// access checks one guarded-field access against the current lockset.
func (c *checker) access(sel *ast.SelectorExpr, write bool) {
	seln, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || seln.Kind() != types.FieldVal {
		return
	}
	field, ok := seln.Obj().(*types.Var)
	if !ok || c.typedAtomics[field] {
		return
	}
	root, basePath, okPath := c.instancePath(sel.X)
	if okPath && c.fresh[root] {
		// Freshly constructed, not yet shared: constructors may
		// initialize guarded and atomic fields without ceremony.
		return
	}
	if c.atomics[field] {
		if !c.atomicCtx[sel.Pos()] {
			c.reportAccess(sel, field, fmt.Sprintf("plain %s of %s, which is //mheta:atomic (use sync/atomic)", accessWord(write), types.ExprString(sel)))
		}
		return
	}
	g := c.guardOf(field, seln)
	if g == nil {
		if !c.atomicCtx[sel.Pos()] {
			c.recordPlain(field, sel)
		}
		return
	}
	if !okPath {
		return // lock instance not statically identifiable
	}
	needPath := joinPath(basePath, g.muPath)
	if st := c.state(); st != nil {
		if l, isHeld := st.find(root, needPath); isHeld {
			if write && !l.write {
				c.reportAccess(sel, field, fmt.Sprintf("write to %s requires %s held for writing, but only a read lock is held", types.ExprString(sel), joinPath(types.ExprString(sel.X), g.muPath)))
			}
			return
		}
	}
	if c.inferring {
		if c.recvObj != nil && root == c.recvObj {
			c.need(lockRef{name: needPath, read: !write && g.rw})
		}
		return
	}
	c.reportAccess(sel, field, fmt.Sprintf("%s %s requires holding %s (//mheta:guardedby)", accessPhrase(write), types.ExprString(sel), joinPath(types.ExprString(sel.X), g.muPath)))
}

func accessWord(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func accessPhrase(write bool) string {
	if write {
		return "write to"
	}
	return "read of"
}

// reportAccess deduplicates by (position, field): an op-assign or x++
// evaluates the target as both a read and a write, one finding suffices.
func (c *checker) reportAccess(sel *ast.SelectorExpr, field *types.Var, msg string) {
	if c.inferring {
		return
	}
	key := c.pass.Fset.Position(sel.Pos()).String() + "\x00" + field.Name()
	if c.accessSeen[key] {
		return
	}
	c.accessSeen[key] = true
	c.reportf(sel.Pos(), "%s", msg)
}

func (c *checker) recordPlain(field *types.Var, sel *ast.SelectorExpr) {
	if field.Pkg() != c.pass.Pkg || !atomicAccessible(field.Type()) {
		return
	}
	if _, ok := c.plainUse[field]; !ok {
		c.plainUse[field] = sel.Pos()
	}
}

// sanctionAtomic marks a &x.f argument of a sync/atomic call as an
// atomic access, both exempting it and recording it for mixing checks.
func (c *checker) sanctionAtomic(sel *ast.SelectorExpr) {
	c.atomicCtx[sel.Pos()] = true
	seln, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || seln.Kind() != types.FieldVal {
		return
	}
	if field, ok := seln.Obj().(*types.Var); ok && field.Pkg() == c.pass.Pkg {
		if _, dup := c.atomicUse[field]; !dup {
			c.atomicUse[field] = sel.Pos()
		}
	}
}

// guardOf resolves a field's guard: the in-package annotation, or the
// external mirror for another package's field.
func (c *checker) guardOf(field *types.Var, seln *types.Selection) *guardInfo {
	if g, ok := c.guards[field]; ok {
		return &g
	}
	if field.Pkg() == c.pass.Pkg {
		return nil
	}
	if g, cached := c.extGuards[field]; cached {
		return g
	}
	var g *guardInfo
	if n := namedOf(seln.Recv()); n != nil && n.Obj().Pkg() != nil {
		key := n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field.Name()
		if muName, ok := ExternalFields[key]; ok {
			if _, rw, _, ok := c.resolveLockPath(seln.Recv(), muName); ok {
				g = &guardInfo{muPath: muName, rw: rw}
			}
		}
	}
	c.extGuards[field] = g
	return g
}

// instancePath resolves an expression to (root variable, field path):
// `p.memo` in a method yields (p, "memo"). ok is false when the value
// is not a stable access path (an index, a call result).
func (c *checker) instancePath(e ast.Expr) (types.Object, string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := c.pass.TypesInfo.ObjectOf(x).(*types.Var); ok {
			return v, "", true
		}
		return nil, "", false
	case *ast.SelectorExpr:
		root, base, ok := c.instancePath(x.X)
		if !ok {
			return nil, "", false
		}
		return root, joinPath(base, x.Sel.Name), true
	case *ast.StarExpr:
		return c.instancePath(x.X)
	}
	return nil, "", false
}

func joinPath(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "." + b
}

// ---- lock transfer (Stateful) ----

// syncOp classifies the sync.Mutex / sync.RWMutex methods.
type syncOp struct {
	acquire bool
	write   bool
	release bool
}

var syncOps = map[string]syncOp{
	"(*sync.Mutex).Lock":      {acquire: true, write: true},
	"(*sync.Mutex).Unlock":    {release: true, write: true},
	"(*sync.RWMutex).Lock":    {acquire: true, write: true},
	"(*sync.RWMutex).Unlock":  {release: true, write: true},
	"(*sync.RWMutex).RLock":   {acquire: true},
	"(*sync.RWMutex).RUnlock": {release: true},
}

func (c *checker) syncMethod(call *ast.CallExpr) (*syncOp, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, ok := c.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return nil, nil
	}
	if op, ok := syncOps[fn.FullName()]; ok {
		return &op, sel.X
	}
	return nil, nil
}

func (c *checker) CallState(call *ast.CallExpr, st val) val {
	if op, lockExpr := c.syncMethod(call); op != nil {
		return val{ls: c.applySync(call, *op, lockExpr, st.ls, false)}
	}
	if fn := c.staticCallee(call); fn != nil {
		return val{ls: c.applyContract(call, fn, st.ls, false)}
	}
	return st
}

func (c *checker) DeferState(call *ast.CallExpr, st val) val {
	if op, lockExpr := c.syncMethod(call); op != nil {
		return val{ls: c.applySync(call, *op, lockExpr, st.ls, true)}
	}
	if fn := c.staticCallee(call); fn != nil {
		return val{ls: c.applyContract(call, fn, st.ls, true)}
	}
	return st
}

func (c *checker) ReturnState(fn ast.Node, ret *ast.ReturnStmt, st val) {
	if fn == c.curNode {
		c.exits = append(c.exits, st.ls)
	}
}

func (c *checker) ExitState(fn ast.Node, st val) {
	if fn == c.curNode {
		c.exits = append(c.exits, st.ls)
	}
}

func (c *checker) applySync(call *ast.CallExpr, op syncOp, lockExpr ast.Expr, st *lockSet, deferred bool) *lockSet {
	if st == nil {
		st = c.emptySet()
	}
	root, path, ok := c.instancePath(lockExpr)
	if !ok {
		return st
	}
	disp := types.ExprString(lockExpr)
	if op.release {
		if _, isHeld := st.find(root, path); !isHeld {
			c.reportf(call.Pos(), "unlock of %s, which is not held here", disp)
			return st
		}
		if deferred {
			return c.markDeferred(st, root, path)
		}
		return c.without(st, root, path)
	}
	if deferred {
		// `defer mu.Lock()` acquires at exit; it guards nothing here.
		return st
	}
	h := held{root: root, path: path, typeKey: c.lockTypeKey(lockExpr, root, path), write: op.write}
	return c.acquire(call.Pos(), st, h, disp)
}

// acquire adds a lock to the set, reporting self-deadlocks (re-locking
// an instance already held, unless both holds are read holds) and
// recording acquisition-order edges from every lock already held.
func (c *checker) acquire(pos token.Pos, st *lockSet, l held, disp string) *lockSet {
	if prev, ok := st.find(l.root, l.path); ok {
		if prev.write || l.write {
			c.reportf(pos, "%s acquired while already held (self-deadlock)", disp)
		}
		return st
	}
	for _, h := range st.locks {
		if h.typeKey != "" && l.typeKey != "" {
			c.addEdge(h.typeKey, l.typeKey, pos)
		}
	}
	return c.withLock(st, l)
}

func (c *checker) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.ObjectOf(f)
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.ObjectOf(f.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// effectiveContract resolves the contract applied at fn's call sites.
// Inferred requirements of boundary (exported-surface) functions are
// not contracts — outside callers can't know them — so only their
// acquire/release behaviour carries over.
func (c *checker) effectiveContract(fn *types.Func) (req, acq, rel []lockRef) {
	ct := c.contracts[fn]
	if ct == nil {
		ct = c.externalContract(fn)
	}
	if ct == nil {
		return nil, nil, nil
	}
	req = ct.requires
	if !ct.declared && c.isBoundary(fn) {
		req = nil
	}
	return req, ct.acquires, ct.releases
}

func (c *checker) externalContract(fn *types.Func) *contract {
	if fn.Pkg() == c.pass.Pkg {
		return nil
	}
	if ct, ok := c.extContracts[fn]; ok {
		return ct
	}
	var ct *contract
	if ext, ok := ExternalFuncs[fn.FullName()]; ok {
		ct = &contract{declared: true}
		parse := func(names []string) []lockRef {
			var refs []lockRef
			for _, n := range names {
				if rest, isRead := strings.CutPrefix(n, "read:"); isRead {
					refs = append(refs, lockRef{name: rest, read: true})
				} else {
					refs = append(refs, lockRef{name: n})
				}
			}
			return refs
		}
		ct.requires = parse(ext.Requires)
		ct.acquires = parse(ext.Acquires)
		ct.releases = parse(ext.Releases)
	}
	c.extContracts[fn] = ct
	return ct
}

func (c *checker) applyContract(call *ast.CallExpr, fn *types.Func, st *lockSet, deferred bool) *lockSet {
	if st == nil {
		st = c.emptySet()
	}
	req, acq, rel := c.effectiveContract(fn)
	if req == nil && acq == nil && rel == nil {
		return st
	}
	var recvType types.Type
	var recvRoot types.Object
	var recvBase, recvDisp string
	recvOK := false
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recvType = sig.Recv().Type()
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvRoot, recvBase, recvOK = c.instancePath(sel.X)
			recvDisp = types.ExprString(sel.X)
		}
	}
	// resolve maps a contract name to the concrete lock at this call
	// site: a mutex path on the receiver argument, or a package-level
	// mutex. Unresolvable names are skipped (already reported once at
	// the declaration).
	resolve := func(ref lockRef) (held, string, bool) {
		if recvType != nil {
			if _, _, tk, ok := c.resolveLockPath(recvType, ref.name); ok {
				if !recvOK {
					return held{}, "", false
				}
				return held{root: recvRoot, path: joinPath(recvBase, ref.name), typeKey: tk, write: !ref.read},
					joinPath(recvDisp, ref.name), true
			}
		}
		if !strings.Contains(ref.name, ".") {
			if v, ok := c.pass.Pkg.Scope().Lookup(ref.name).(*types.Var); ok {
				if _, isMu := mutexKind(v.Type()); isMu {
					return held{root: v, path: "", typeKey: c.pass.PkgPath + "." + v.Name(), write: !ref.read}, v.Name(), true
				}
			}
		}
		return held{}, "", false
	}
	if !deferred {
		for _, ref := range req {
			h, disp, ok := resolve(ref)
			if !ok {
				continue
			}
			l, isHeld := st.find(h.root, h.path)
			switch {
			case !isHeld:
				if c.inferring {
					if nr, ok := c.refOf(h); ok {
						nr.read = ref.read
						c.need(nr)
					}
				} else {
					c.reportf(call.Pos(), "call to %s requires holding %s (//mheta:locks)", fn.Name(), disp)
				}
			case !ref.read && !l.write:
				c.reportf(call.Pos(), "call to %s requires %s held for writing, but only a read lock is held", fn.Name(), disp)
			}
		}
	}
	for _, ref := range rel {
		h, disp, ok := resolve(ref)
		if !ok {
			continue
		}
		if _, isHeld := st.find(h.root, h.path); !isHeld {
			c.reportf(call.Pos(), "call to %s releases %s, which is not held here", fn.Name(), disp)
			continue
		}
		if deferred {
			st = c.markDeferred(st, h.root, h.path)
		} else {
			st = c.without(st, h.root, h.path)
		}
	}
	if !deferred {
		for _, ref := range acq {
			h, disp, ok := resolve(ref)
			if !ok {
				continue
			}
			st = c.acquire(call.Pos(), st, h, disp)
		}
	}
	return st
}

// lockTypeKey names a lock for the order graph, conflating instances of
// one declared lock: "(pkg.T).mu" for a field, "pkg.mu" for a
// package-level mutex, "(pkg.T)" for an embedded mutex.
func (c *checker) lockTypeKey(lockExpr ast.Expr, root types.Object, path string) string {
	if sel, ok := ast.Unparen(lockExpr).(*ast.SelectorExpr); ok {
		if seln, ok := c.pass.TypesInfo.Selections[sel]; ok {
			if n := namedOf(seln.Recv()); n != nil {
				return "(" + qualName(n.Obj()) + ")." + sel.Sel.Name
			}
		}
	}
	if path == "" && root.Parent() == c.pass.Pkg.Scope() {
		return c.pass.PkgPath + "." + root.Name()
	}
	if n := namedOf(root.Type()); n != nil {
		return "(" + qualName(n.Obj()) + ")"
	}
	return ""
}

// ---- Semantics (value half is trivial; checks are side effects) ----

func (c *checker) Bottom() val { return val{} }

func (c *checker) Join(a, b val) val {
	if a == b {
		return a
	}
	return val{ls: c.joinSets(a.ls, b.ls)}
}

func (c *checker) Atom(e ast.Expr) val {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		c.access(sel, false)
	}
	return val{}
}

func (c *checker) Unary(e *ast.UnaryExpr, x val) val                          { return val{} }
func (c *checker) Binary(e *ast.BinaryExpr, x, y val) val                     { return val{} }
func (c *checker) OpAssign(e *ast.AssignStmt, op token.Token, l, r val) val   { return val{} }
func (c *checker) Index(e *ast.IndexExpr, x val) val                          { return val{} }
func (c *checker) Result(call *ast.CallExpr, i int) val                       { return val{} }
func (c *checker) Range(rs *ast.RangeStmt, x val) (val, val)                  { return val{}, val{} }
func (c *checker) Composite(l *ast.CompositeLit, kv *ast.KeyValueExpr, v val) {}
func (c *checker) Return(fn ast.Node, ret *ast.ReturnStmt, vals []val)        {}

func (c *checker) Enter(fn ast.Node, ft *ast.FuncType, env *dataflow.Env[val]) {
	if fn != c.curNode {
		return // a function literal inherits the cloned state as-is
	}
	env.SetState(val{ls: c.entryLS})
}

func (c *checker) Call(e *ast.CallExpr, eval dataflow.Eval[val]) val {
	switch fn := c.calleeObject(e).(type) {
	case *types.Builtin:
		if (fn.Name() == "clear" || fn.Name() == "delete") && len(e.Args) > 0 {
			// Mutating builtins write through their first argument.
			if sel, ok := ast.Unparen(e.Args[0]).(*ast.SelectorExpr); ok {
				c.access(sel, true)
			} else {
				eval(e.Args[0])
			}
			for _, a := range e.Args[1:] {
				eval(a)
			}
			return val{}
		}
	case *types.Func:
		if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
			for _, a := range e.Args {
				if sel := addrOfFieldSel(a); sel != nil {
					c.sanctionAtomic(sel)
				}
				eval(a)
			}
			return val{}
		}
	}
	// A method call reads its receiver operand: `m.f.M()` reads m.f.
	if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
		if seln, ok := c.pass.TypesInfo.Selections[sel]; ok && seln.Kind() == types.MethodVal {
			eval(sel.X)
		}
	}
	for _, a := range e.Args {
		eval(a)
	}
	return val{}
}

func (c *checker) Bind(lhs ast.Expr, obj types.Object, rhs ast.Expr, v val) val {
	if obj != nil {
		if rhs != nil && c.freshRHS(rhs) {
			c.fresh[obj] = true
		} else {
			delete(c.fresh, obj)
		}
		return v
	}
	c.lhsAccess(lhs)
	return v
}

// lhsAccess checks the field access implied by a non-identifier store
// target: `m.f = x` and `m.f[k] = x` write the field; `*m.p = x` only
// reads the pointer field.
func (c *checker) lhsAccess(lhs ast.Expr) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		c.access(x, true)
	case *ast.IndexExpr:
		c.lhsAccess(x.X)
	case *ast.StarExpr:
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
			c.access(sel, false)
		}
	}
}

func (c *checker) calleeObject(e *ast.CallExpr) types.Object {
	switch f := ast.Unparen(e.Fun).(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.ObjectOf(f)
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.ObjectOf(f.Sel)
	}
	return nil
}

// freshRHS reports whether rhs constructs a brand-new value: a
// composite literal, its address, or new(T).
func (c *checker) freshRHS(rhs ast.Expr) bool {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
				return b.Name() == "new"
			}
		}
	}
	return false
}

// addrOfFieldSel unwraps &x.f to the field selector, else nil.
func addrOfFieldSel(a ast.Expr) *ast.SelectorExpr {
	u, ok := ast.Unparen(a).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, _ := ast.Unparen(u.X).(*ast.SelectorExpr)
	return sel
}

// ---- type helpers ----

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func namedOf(t types.Type) *types.Named {
	n, _ := derefType(t).(*types.Named)
	return n
}

func structUnder(t types.Type) *types.Struct {
	s, _ := derefType(t).Underlying().(*types.Struct)
	return s
}

func qualName(obj *types.TypeName) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

func mutexKind(t types.Type) (rw, ok bool) {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch n.Obj().Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func isAtomicType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" && atomicTypeNames[n.Obj().Name()]
}

// atomicAccessible reports whether sync/atomic functions can operate on
// a plain field of this type.
func atomicAccessible(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsInteger != 0 || b.Kind() == types.UnsafePointer
}

// resolveLockPath resolves a dotted lock name against a (possibly
// pointer) struct type, returning the mutex field, whether it is an
// RWMutex, and the type-qualified order-graph key of its owner.
func (c *checker) resolveLockPath(t types.Type, path string) (mu *types.Var, rw bool, typeKey string, ok bool) {
	cur := t
	segs := strings.Split(path, ".")
	var field *types.Var
	for i, seg := range segs {
		st := structUnder(cur)
		if st == nil {
			return nil, false, "", false
		}
		field = nil
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == seg {
				field = st.Field(j)
				break
			}
		}
		if field == nil {
			return nil, false, "", false
		}
		if i < len(segs)-1 {
			cur = field.Type()
		}
	}
	rw, isMu := mutexKind(field.Type())
	if !isMu {
		return nil, false, "", false
	}
	tk := segs[len(segs)-1]
	if n := namedOf(cur); n != nil {
		tk = "(" + qualName(n.Obj()) + ")." + tk
	}
	return field, rw, tk, true
}
