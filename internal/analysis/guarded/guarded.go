// Package guarded implements the mheta-lint lock-discipline analyzer: a
// lockset dataflow proving that struct fields annotated
// `//mheta:guardedby <mutexField>` are only read or written while the
// named sibling mutex is statically held.
//
// The analysis instantiates lintkit's dataflow engine with an
// intersection lattice of held locks (DESIGN.md §5.14): Lock/RLock add
// a lock to the flow state, Unlock/RUnlock remove one, `defer
// mu.Unlock()` marks it released-at-exit but held for the remainder of
// the function, and control-flow joins intersect the locksets of the
// merging paths. Lock identity is the access path from a root variable
// (`m.mu` in a method of Memo), so two Memo values never share a lock.
// Unlocking a lock that is not held, and re-locking one that is, are
// findings too.
//
// The analysis is intraprocedural. A method whose caller must hold a
// lock says so in its doc comment — `//mheta:locks requires <lock>`,
// naming a mutex field of the receiver — and is analyzed with that lock
// held; each call site is checked to hold it. A new goroutine holds
// none of its spawner's locks, so `go f()` on such a method is a
// finding and a spawned function literal starts with an empty lockset.
//
// Deliberate approximations, all warn-only: TryLock is not modeled (its
// success is a branch condition), sync.Cond.Wait is treated as keeping
// the lock held (matching the annotation intent of condition loops),
// conditional locking (`if locked { mu.Unlock() }`) loses the lock at
// the join, locks reached through embedded-struct field promotion are
// not matched, and a guarded field is checked only in its own package
// (lintkit carries no facts across packages).
package guarded

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mheta/internal/analysis/lintkit"
	"mheta/internal/analysis/lintkit/dataflow"
)

// Analyzer is the guarded analyzer, for registration with lintkit.
var Analyzer = &lintkit.Analyzer{
	Name: "guarded",
	Doc:  "check //mheta:guardedby field discipline via lockset dataflow, and //mheta:locks requires contracts at call and go sites",
	Run:  run,
}

func run(pass *lintkit.Pass) (any, error) {
	c := &checker{
		pass:       pass,
		consumed:   map[token.Pos]bool{},
		guards:     map[*types.Var]string{},
		requires:   map[*types.Func][]string{},
		sets:       map[string]*lockSet{},
		seen:       map[string]bool{},
		accessSeen: map[string]bool{},
	}
	c.interp = &dataflow.Interp[val]{Info: pass.TypesInfo, Sem: c}
	c.collect()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				c.analyze(x)
			case *ast.GoStmt:
				c.checkSpawn(x)
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass   *lintkit.Pass
	interp *dataflow.Interp[val]

	// consumed marks directive positions attached to a field or method,
	// so collect can report strays.
	consumed map[token.Pos]bool
	// guards maps each //mheta:guardedby field to its mutex's dotted path
	// within the same struct.
	guards map[*types.Var]string
	// requires maps each method declaring //mheta:locks requires to the
	// receiver mutex paths its callers must hold.
	requires map[*types.Func][]string

	// sets interns locksets so the dataflow value is pointer-comparable.
	sets map[string]*lockSet

	seen map[string]bool
	// accessSeen deduplicates access diagnostics by (position, field) so
	// an op-assign reports once, not as both a read and a write.
	accessSeen map[string]bool

	// Per-declaration state.
	curNode ast.Node
	recvObj types.Object
	entryLS *lockSet
	// fresh marks locals bound to freshly constructed values (composite
	// literals, new(T)); accesses rooted at them are unshared and
	// exempt, which keeps constructors annotation-free.
	fresh map[types.Object]bool
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := c.pass.Fset.Position(pos).String() + "\x00" + msg
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.pass.Report(lintkit.Diagnostic{Pos: pos, Message: msg})
}

// ---- annotation collection ----

// collect reads every //mheta:guardedby field and //mheta:locks
// contract, then reports the directives that attached to neither.
func (c *checker) collect() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok || d.Doc == nil {
					continue
				}
				for _, dir := range c.pass.Directives() {
					if dir.Kind == "mheta" && dir.Name == "locks" && dir.Pos >= d.Doc.Pos() && dir.Pos < d.Doc.End() {
						c.consumed[dir.Pos] = true
						c.addRequires(fn, dir)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if tn, isType := info.Defs[ts.Name].(*types.TypeName); ok && isType {
						c.collectStruct(tn, st)
					}
				}
			}
		}
	}
	for _, d := range c.pass.Directives() {
		if d.Kind != "mheta" || c.consumed[d.Pos] {
			continue
		}
		switch d.Name {
		case "guardedby":
			c.reportf(d.Pos, "//mheta:guardedby must sit on a struct field (same line or the line above)")
		case "locks":
			c.reportf(d.Pos, "//mheta:locks belongs in a method's doc comment")
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
			for _, d := range c.pass.MhetaAt(name.Pos(), "guardedby") {
				c.consumed[d.Pos] = true
				args := strings.Fields(d.Args)
				switch {
				case len(args) != 1:
					c.reportf(d.Pos, "//mheta:guardedby needs exactly one mutex field name")
				case !isLockPath(tn.Type(), args[0]):
					c.reportf(d.Pos, "//mheta:guardedby names no mutex field %q in %s", args[0], tn.Name())
				default:
					c.guards[fv] = args[0]
				}
			}
		}
	}
}

// addRequires records one `//mheta:locks requires <lock>...` line.
func (c *checker) addRequires(fn *types.Func, d lintkit.Directive) {
	fields := strings.Fields(d.Args)
	if len(fields) < 2 || fields[0] != "requires" {
		c.reportf(d.Pos, "//mheta:locks must read `requires <lock>...` (got %q)", d.Args)
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	for _, name := range fields[1:] {
		if recv == nil || !isLockPath(recv.Type(), name) {
			c.reportf(d.Pos, "//mheta:locks names unknown lock %q (not a mutex field of the receiver)", name)
			continue
		}
		c.requires[fn] = append(c.requires[fn], name)
	}
}

// ---- per-function driver ----

// analyze runs the lockset dataflow over one declaration, starting from
// the locks its //mheta:locks contract requires.
func (c *checker) analyze(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	c.curNode = fd
	c.recvObj = nil
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		c.recvObj, _ = c.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	}
	var locks []held
	if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && c.recvObj != nil {
		for _, name := range c.requires[fn] {
			locks = append(locks, held{root: c.recvObj, path: name, write: true})
		}
	}
	c.entryLS = c.intern(locks)
	c.fresh = map[types.Object]bool{}
	c.interp.Func(fd)
	c.curNode = nil
}

// checkSpawn reports `go f()` where f requires a lock: the new
// goroutine runs f holding nothing.
func (c *checker) checkSpawn(g *ast.GoStmt) {
	fn, _ := c.pass.CalleeObject(g.Call).(*types.Func)
	if req := c.requires[fn]; len(req) > 0 {
		c.reportf(g.Pos(), "go %s: a new goroutine holds none of its spawner's locks, but %s requires %s (//mheta:locks)", fn.Name(), fn.Name(), strings.Join(req, ", "))
	}
}

// ---- access checking ----

// access checks one guarded-field access against the current lockset.
func (c *checker) access(sel *ast.SelectorExpr, write bool) {
	seln, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || seln.Kind() != types.FieldVal {
		return
	}
	field, _ := seln.Obj().(*types.Var)
	muPath, guarded := c.guards[field]
	if !guarded {
		return
	}
	root, basePath, ok := c.instancePath(sel.X)
	if !ok || c.fresh[root] {
		// The lock instance is not statically identifiable, or the value
		// is freshly constructed and not yet shared.
		return
	}
	lock := joinPath(types.ExprString(sel.X), muPath)
	l, isHeld := c.interp.State().ls.find(root, joinPath(basePath, muPath))
	switch {
	case !isHeld:
		verb := "read of"
		if write {
			verb = "write to"
		}
		c.reportAccess(sel, field, fmt.Sprintf("%s %s requires holding %s (//mheta:guardedby)", verb, types.ExprString(sel), lock))
	case write && !l.write:
		c.reportAccess(sel, field, fmt.Sprintf("write to %s requires %s held for writing, but only a read lock is held", types.ExprString(sel), lock))
	}
}

// reportAccess deduplicates by (position, field): an op-assign or x++
// evaluates the target as both a read and a write, one finding suffices.
func (c *checker) reportAccess(sel *ast.SelectorExpr, field *types.Var, msg string) {
	key := c.pass.Fset.Position(sel.Pos()).String() + "\x00" + field.Name()
	if c.accessSeen[key] {
		return
	}
	c.accessSeen[key] = true
	c.reportf(sel.Pos(), "%s", msg)
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
	case *ast.SelectorExpr:
		if root, base, ok := c.instancePath(x.X); ok {
			return root, joinPath(base, x.Sel.Name), true
		}
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
	write   bool
	release bool
}

var syncOps = map[string]syncOp{
	"(*sync.Mutex).Lock":      {write: true},
	"(*sync.Mutex).Unlock":    {release: true, write: true},
	"(*sync.RWMutex).Lock":    {write: true},
	"(*sync.RWMutex).Unlock":  {release: true, write: true},
	"(*sync.RWMutex).RLock":   {},
	"(*sync.RWMutex).RUnlock": {release: true},
}

func (c *checker) CallState(call *ast.CallExpr, st val) val {
	fn, _ := c.pass.CalleeObject(call).(*types.Func)
	if fn == nil {
		return st
	}
	if op, ok := syncOps[fn.FullName()]; ok {
		return val{ls: c.applySync(call, op, st.ls, false)}
	}
	c.checkRequires(call, fn, st.ls)
	return st
}

func (c *checker) DeferState(call *ast.CallExpr, st val) val {
	if fn, _ := c.pass.CalleeObject(call).(*types.Func); fn != nil {
		if op, ok := syncOps[fn.FullName()]; ok {
			return val{ls: c.applySync(call, op, st.ls, true)}
		}
	}
	return st
}

// applySync applies one Lock/Unlock-family call to the lockset.
func (c *checker) applySync(call *ast.CallExpr, op syncOp, st *lockSet, deferred bool) *lockSet {
	if st == nil {
		st = c.intern(nil)
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return st
	}
	root, path, ok := c.instancePath(sel.X)
	if !ok {
		return st
	}
	disp := types.ExprString(sel.X)
	prev, isHeld := st.find(root, path)
	switch {
	case op.release && !isHeld:
		c.reportf(call.Pos(), "unlock of %s, which is not held here", disp)
		return st
	case op.release && deferred:
		return c.markDeferred(st, root, path)
	case op.release:
		return c.without(st, root, path)
	case deferred:
		// `defer mu.Lock()` acquires at exit; it guards nothing here.
		return st
	case isHeld:
		if prev.write || op.write {
			c.reportf(call.Pos(), "%s acquired while already held (self-deadlock)", disp)
		}
		return st
	}
	return c.withLock(st, held{root: root, path: path, write: op.write})
}

// checkRequires checks a call to a //mheta:locks requires method: the
// named receiver locks must be held, for writing.
func (c *checker) checkRequires(call *ast.CallExpr, fn *types.Func, st *lockSet) {
	req := c.requires[fn]
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if len(req) == 0 || !ok {
		return
	}
	root, base, ok := c.instancePath(sel.X)
	if !ok {
		return
	}
	for _, name := range req {
		disp := joinPath(types.ExprString(sel.X), name)
		l, isHeld := st.find(root, joinPath(base, name))
		switch {
		case !isHeld:
			c.reportf(call.Pos(), "call to %s requires holding %s (//mheta:locks)", fn.Name(), disp)
		case !l.write:
			c.reportf(call.Pos(), "call to %s requires %s held for writing, but only a read lock is held", fn.Name(), disp)
		}
	}
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

// Enter seeds a declaration with its contract's locks. A literal keeps
// the state the engine hands it: the enclosing point's lockset, or — for
// a `go`-spawned literal — bottom, which becomes the empty set here.
func (c *checker) Enter(fn ast.Node, ft *ast.FuncType, env *dataflow.Env[val]) {
	switch {
	case fn == c.curNode:
		env.SetState(val{ls: c.entryLS})
	case env.State().ls == nil:
		env.SetState(val{ls: c.intern(nil)})
	}
}

func (c *checker) Call(e *ast.CallExpr, eval dataflow.Eval[val]) val {
	if b, ok := c.pass.CalleeObject(e).(*types.Builtin); ok && (b.Name() == "clear" || b.Name() == "delete") && len(e.Args) > 0 {
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
		if b, ok := c.pass.CalleeObject(x).(*types.Builtin); ok {
			return b.Name() == "new"
		}
	}
	return false
}

// ---- type helpers ----

// isLockPath reports whether the dotted path names a sync.Mutex or
// sync.RWMutex field reached from the (possibly pointer) struct type t.
func isLockPath(t types.Type, path string) bool {
	for _, seg := range strings.Split(path, ".") {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return false
		}
		var field *types.Var
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == seg {
				field = st.Field(i)
			}
		}
		if field == nil {
			return false
		}
		t = field.Type()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}
