// Package dataflow is lintkit's intraprocedural abstract-interpretation
// engine: a per-function forward analysis over go/ast + go/types,
// parameterized by a client-supplied lattice (the Semantics interface).
//
// The engine owns the parts every dataflow analysis repeats — an
// environment mapping variables to abstract values, statement-ordered
// propagation, branch joins at if/switch/select merges, a bounded
// fixpoint for loops, function-literal bodies, and named-result plumbing
// for naked returns — while the client owns the lattice itself and every
// domain rule: how atoms (literals, fields, calls) are valued, how
// operators combine values, and what constitutes a reportable conflict.
// The units analyzer instantiates it with the dimension lattice of
// DESIGN.md §5.11; the engine is equally usable for other forward
// analyses (the tests drive it with a parity domain).
//
// Approximations, chosen deliberately for a linter (warn-only, no
// soundness obligation):
//
//   - Loops run to a bounded fixpoint (maxLoopPasses) and the loop entry
//     state is joined with every body pass, so zero-iteration paths are
//     always represented.
//   - Branch arms that cannot fall through (every suffix ends in return,
//     break/continue/goto, panic, or os.Exit) are excluded from the
//     merge after the branch, so "if cond { cleanup; return }" does not
//     pollute the straight-line state. break/continue state is dropped
//     rather than propagated to the enclosing loop exit.
//   - The analysis is intraprocedural: calls are valued by the client
//     (typically from annotations or type information), never by
//     descending into the callee.
//   - Function literals are analyzed at their point of appearance with a
//     copy of the enclosing environment (closures observe the bindings
//     in scope), and their effects on captured variables are ignored.
//     This includes literals in call position — go func(){…}(),
//     defer func(){…}(), and immediately-invoked closures.
//
// Clients whose lattice describes a property of the program *point*
// rather than of individual variables (a set of held locks, say)
// additionally implement the optional Stateful interface; the engine
// then threads one extra V — the flow state — through the same clone,
// join, and fixpoint machinery and exposes it at every hook via
// Interp.State.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maxLoopPasses bounds the per-loop fixpoint iteration. Values join
// upward quickly in shallow lattices; if the state is still changing
// after this many passes the engine keeps the last join, which is safe
// for warn-only clients.
const maxLoopPasses = 4

// Eval values one expression in the current environment. Clients receive
// one inside Semantics.Call so argument checks observe the same state.
type Eval[V comparable] func(e ast.Expr) V

// Semantics is the client's half of the analysis: the lattice and the
// domain rules. All hooks may report diagnostics as a side effect; the
// engine may evaluate the same syntax more than once (loop fixpoints,
// both arms of a branch), so clients must deduplicate reports by
// position.
type Semantics[V comparable] interface {
	// Bottom is the lattice's least element: "no information yet".
	Bottom() V
	// Join combines the values reaching a control-flow merge.
	Join(a, b V) V
	// Atom values an expression the engine does not decompose:
	// identifiers with no binding, selectors, literals, and anything
	// structurally unknown.
	Atom(e ast.Expr) V
	// Unary values op x. The engine resolves &x and *x itself.
	Unary(e *ast.UnaryExpr, x V) V
	// Binary values x op y for e.X op e.Y.
	Binary(e *ast.BinaryExpr, x, y V) V
	// OpAssign values lhs op= rhs (op is the underlying binary token,
	// e.g. token.ADD for +=).
	OpAssign(e *ast.AssignStmt, op token.Token, lhs, rhs V) V
	// Index values e.X[i] given the value of e.X.
	Index(e *ast.IndexExpr, x V) V
	// Call values a call or conversion. The client must invoke eval on
	// each argument it wants analyzed (sub-expressions are only walked
	// through eval).
	Call(e *ast.CallExpr, eval Eval[V]) V
	// Result values the i'th result of call in a multi-value assignment
	// (x, y := f()).
	Result(call *ast.CallExpr, i int) V
	// Bind observes a store. lhs is the assignment target; obj is its
	// root object when lhs is a plain identifier (nil for field, index
	// and deref targets, whose checks are the client's to make from
	// lhs); rhs is the assigned expression (nil for zero-value
	// declarations and range bindings); v is the incoming value. The
	// returned value is recorded in the environment.
	Bind(lhs ast.Expr, obj types.Object, rhs ast.Expr, v V) V
	// Range values the key and value bindings of a range over x.
	Range(rs *ast.RangeStmt, x V) (key, val V)
	// Composite observes one keyed element of a composite literal, for
	// field-annotation checks.
	Composite(lit *ast.CompositeLit, kv *ast.KeyValueExpr, v V)
	// Enter seeds the environment at function entry (parameters, named
	// results). fn is the *ast.FuncDecl or *ast.FuncLit being entered.
	Enter(fn ast.Node, ft *ast.FuncType, env *Env[V])
	// Return observes a return statement with its evaluated results
	// (resolved from the environment for naked returns).
	Return(fn ast.Node, ret *ast.ReturnStmt, vals []V)
}

// Stateful is an optional Semantics extension for analyses that track a
// property of the program point itself — a lockset, a taint frontier —
// rather than only per-variable values. The flow state is one extra V
// carried by the environment: cloned at branches, merged with
// Semantics.Join at control-flow joins, and readable from any hook via
// Interp.State. The engine applies the client's transfer functions at
// the statements that change it:
//
//   - CallState after every ordinary call (mu.Lock() acquires here);
//   - DeferState for a defer'd call, whose effect is modeled at the
//     defer site rather than at function exit — the standard
//     "defer mu.Unlock()" idiom then reads as a release scoped to the
//     remainder of the function;
//   - no transfer at all for a go'd call: its effects happen on another
//     goroutine. A spawned literal's *body* is still analyzed, against a
//     snapshot of the current bindings but with the flow state reset to
//     Bottom — the new goroutine starts with none of its spawner's point
//     properties (no held locks) — for the client's Enter to seed.
type Stateful[V comparable] interface {
	CallState(call *ast.CallExpr, state V) V
	DeferState(call *ast.CallExpr, state V) V
}

// Env maps variables to abstract values. Missing objects are Bottom.
// It also carries the Stateful flow state, when the client uses one.
type Env[V comparable] struct {
	vals  map[types.Object]V
	state V
}

// NewEnv returns an empty environment.
func NewEnv[V comparable]() *Env[V] {
	return &Env[V]{vals: make(map[types.Object]V)}
}

// Get returns the value bound to obj and whether a binding exists.
func (e *Env[V]) Get(obj types.Object) (V, bool) {
	v, ok := e.vals[obj]
	return v, ok
}

// Set binds obj to v.
func (e *Env[V]) Set(obj types.Object, v V) {
	if obj != nil {
		e.vals[obj] = v
	}
}

// State returns the flow state (see Stateful).
func (e *Env[V]) State() V { return e.state }

// SetState replaces the flow state. Stateful clients call it from Enter
// to seed a function's entry contract.
func (e *Env[V]) SetState(v V) { e.state = v }

func (e *Env[V]) clone() *Env[V] {
	c := &Env[V]{vals: make(map[types.Object]V, len(e.vals)), state: e.state}
	for k, v := range e.vals {
		c.vals[k] = v
	}
	return c
}

// joinInto merges src into e pointwise with join; missing bindings count
// as bottom (join's identity). The flow state is joined too. It reports
// whether e changed.
func (e *Env[V]) joinInto(join func(a, b V) V, bottom V, src *Env[V]) bool {
	changed := false
	if ns := join(e.state, src.state); ns != e.state {
		e.state = ns
		changed = true
	}
	for k, sv := range src.vals {
		ev, ok := e.vals[k]
		if !ok {
			ev = bottom
		}
		nv := join(ev, sv)
		if !ok || nv != ev {
			e.vals[k] = nv
			changed = true
		}
	}
	return changed
}

// Interp drives one Semantics over functions of a type-checked package.
type Interp[V comparable] struct {
	Info *types.Info
	Sem  Semantics[V]

	// st is Sem's Stateful view, nil when Sem does not implement it.
	// cur mirrors the flow state of the environment currently being
	// interpreted; the walk is depth-first and single-threaded, so the
	// last-synced value is always the current program point's.
	st  Stateful[V]
	cur V
}

// State returns the flow state at the program point currently being
// interpreted. It is meaningful only inside hook callbacks issued by
// this Interp, and only for Stateful clients.
func (in *Interp[V]) State() V { return in.cur }

// Func analyzes one function declaration or literal from scratch.
func (in *Interp[V]) Func(fn ast.Node) {
	in.funcWith(fn, NewEnv[V]())
}

// funcWith analyzes fn starting from env (used for closures, which see
// the enclosing bindings).
func (in *Interp[V]) funcWith(fn ast.Node, env *Env[V]) {
	if in.st == nil {
		in.st, _ = in.Sem.(Stateful[V])
	}
	var ft *ast.FuncType
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		ft, body = f.Type, f.Body
	case *ast.FuncLit:
		ft, body = f.Type, f.Body
	default:
		return
	}
	if body == nil {
		return
	}
	fs := &funcScope[V]{in: in, fn: fn, resultObjs: namedResults(in.Info, ft)}
	in.Sem.Enter(fn, ft, env)
	fs.stmt(env, body)
}

// namedResults resolves the objects of named results, for naked returns.
func namedResults(info *types.Info, ft *ast.FuncType) []types.Object {
	if ft.Results == nil {
		return nil
	}
	var objs []types.Object
	for _, f := range ft.Results.List {
		for _, name := range f.Names {
			objs = append(objs, info.Defs[name])
		}
	}
	return objs
}

// funcScope is the per-function state: the node (for Return attribution)
// and its named-result objects.
type funcScope[V comparable] struct {
	in         *Interp[V]
	fn         ast.Node
	resultObjs []types.Object
}

func (fs *funcScope[V]) objectOf(id *ast.Ident) types.Object {
	return fs.in.Info.ObjectOf(id)
}

// sync publishes env's flow state as the Interp's current-point state,
// so hooks invoked next observe the right lockset. Called wherever the
// engine switches between environments (branch arms, closure bodies).
func (fs *funcScope[V]) sync(env *Env[V]) {
	if fs.in.st != nil {
		fs.in.cur = env.state
	}
}

// eval computes the abstract value of e under env.
func (fs *funcScope[V]) eval(env *Env[V], e ast.Expr) V {
	fs.sync(env)
	sem := fs.in.Sem
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fs.eval(env, x.X)
	case *ast.Ident:
		if obj := fs.objectOf(x); obj != nil {
			if v, ok := env.Get(obj); ok && v != sem.Bottom() {
				return v
			}
		}
		return sem.Atom(e)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return fs.eval(env, x.X)
		}
		return sem.Unary(x, fs.eval(env, x.X))
	case *ast.StarExpr:
		return fs.eval(env, x.X)
	case *ast.BinaryExpr:
		xv := fs.eval(env, x.X)
		yv := fs.eval(env, x.Y)
		return sem.Binary(x, xv, yv)
	case *ast.IndexExpr:
		fs.eval(env, x.Index)
		return sem.Index(x, fs.eval(env, x.X))
	case *ast.SliceExpr:
		return fs.eval(env, x.X)
	case *ast.CallExpr:
		return fs.call(env, x, normalCall)
	case *ast.FuncLit:
		// Analyze the literal's body where it appears; closures observe
		// a snapshot of the enclosing environment.
		fs.in.funcWith(x, env.clone())
		fs.sync(env)
		return sem.Atom(e)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				sem.Composite(x, kv, fs.eval(env, kv.Value))
			} else {
				fs.eval(env, el)
			}
		}
		return sem.Atom(e)
	case *ast.TypeAssertExpr:
		fs.eval(env, x.X)
		return sem.Atom(e)
	default:
		// SelectorExpr, BasicLit and anything else the engine does not
		// decompose.
		return sem.Atom(e)
	}
}

// callMode distinguishes how a call's effects apply at this point.
type callMode int

const (
	normalCall callMode = iota
	goCall              // effects happen on another goroutine
	deferCall           // effects modeled at the defer site (DeferState)
)

// call evaluates one call expression: a literal callee's body is
// analyzed where it appears, the client values the call, and — for
// Stateful clients — the mode-appropriate state transfer is applied.
func (fs *funcScope[V]) call(env *Env[V], x *ast.CallExpr, mode callMode) V {
	if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
		// go func(){…}(), defer func(){…}(), and immediately-invoked
		// closures: the body executes against the bindings in scope here.
		// Only a deferred or invoked body also runs at this point's flow
		// state; a spawned one starts from Bottom on its own goroutine.
		litEnv := env.clone()
		if mode == goCall {
			litEnv.state = fs.in.Sem.Bottom()
		}
		fs.in.funcWith(lit, litEnv)
		fs.sync(env)
	}
	v := fs.in.Sem.Call(x, func(arg ast.Expr) V { return fs.eval(env, arg) })
	if fs.in.st != nil {
		switch mode {
		case normalCall:
			env.state = fs.in.st.CallState(x, env.state)
		case deferCall:
			env.state = fs.in.st.DeferState(x, env.state)
		case goCall:
			// No transfer: the spawned call's effects are not visible on
			// this goroutine's path.
		}
		fs.in.cur = env.state
	}
	return v
}

// store records an assignment of v to lhs, routing through Bind.
func (fs *funcScope[V]) store(env *Env[V], lhs ast.Expr, rhs ast.Expr, v V) {
	fs.sync(env)
	var obj types.Object
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj = fs.objectOf(id)
	} else {
		// Evaluate the target's sub-expressions (indices, receivers) so
		// checks inside them fire.
		fs.evalLValueParts(env, lhs)
	}
	bound := fs.in.Sem.Bind(lhs, obj, rhs, v)
	if _, isVar := obj.(*types.Var); isVar {
		env.Set(obj, bound)
	}
}

// evalLValueParts walks the non-identifier parts of an lvalue (index
// expressions and the like) for their side-effect checks.
func (fs *funcScope[V]) evalLValueParts(env *Env[V], lhs ast.Expr) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		fs.eval(env, x.Index)
	case *ast.StarExpr, *ast.SelectorExpr:
		// Nothing to evaluate for checks.
	}
}

func (fs *funcScope[V]) assign(env *Env[V], st *ast.AssignStmt) {
	sem := fs.in.Sem
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
			// Multi-value: x, y := f() or v, ok := m[k].
			call, _ := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			fs.eval(env, st.Rhs[0])
			for i, lhs := range st.Lhs {
				v := sem.Bottom()
				if call != nil {
					v = sem.Result(call, i)
				}
				fs.store(env, lhs, nil, v)
			}
			return
		}
		for i := range st.Lhs {
			if i >= len(st.Rhs) {
				break
			}
			v := fs.eval(env, st.Rhs[i])
			fs.store(env, st.Lhs[i], st.Rhs[i], v)
		}
	default:
		// Compound assignment: lhs op= rhs.
		op := assignOp(st.Tok)
		lv := fs.eval(env, st.Lhs[0])
		rv := fs.eval(env, st.Rhs[0])
		v := sem.OpAssign(st, op, lv, rv)
		fs.store(env, st.Lhs[0], st.Rhs[0], v)
	}
}

// assignOp maps an op-assign token to its underlying binary operator.
func assignOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return tok
}

// stmt interprets one statement, mutating env in place.
func (fs *funcScope[V]) stmt(env *Env[V], s ast.Stmt) {
	fs.sync(env)
	sem := fs.in.Sem
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range st.List {
			fs.stmt(env, inner)
		}
	case *ast.ExprStmt:
		fs.eval(env, st.X)
	case *ast.AssignStmt:
		fs.assign(env, st)
	case *ast.DeclStmt:
		fs.decl(env, st)
	case *ast.IfStmt:
		if st.Init != nil {
			fs.stmt(env, st.Init)
		}
		fs.eval(env, st.Cond)
		thenEnv := env.clone()
		fs.stmt(thenEnv, st.Body)
		thenStops := fs.terminates(st.Body)
		if st.Else != nil {
			elseEnv := env.clone()
			fs.stmt(elseEnv, st.Else)
			switch elseStops := fs.terminates(st.Else); {
			case thenStops && elseStops:
				// Neither arm falls through; whatever follows is only
				// reachable by jumps the engine does not model. Keep the
				// pre-state.
			case thenStops:
				*env = *elseEnv
			case elseStops:
				*env = *thenEnv
			default:
				thenEnv.joinInto(sem.Join, sem.Bottom(), elseEnv)
				*env = *thenEnv
			}
		} else if !thenStops {
			env.joinInto(sem.Join, sem.Bottom(), thenEnv)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			fs.stmt(env, st.Init)
		}
		fs.loop(env, func(body *Env[V]) {
			if st.Cond != nil {
				fs.eval(body, st.Cond)
			}
			fs.stmt(body, st.Body)
			if st.Post != nil {
				fs.stmt(body, st.Post)
			}
		})
	case *ast.RangeStmt:
		xv := fs.eval(env, st.X)
		kv, vv := sem.Range(st, xv)
		fs.loop(env, func(body *Env[V]) {
			if st.Key != nil {
				fs.store(body, st.Key, nil, kv)
			}
			if st.Value != nil {
				fs.store(body, st.Value, nil, vv)
			}
			fs.stmt(body, st.Body)
		})
	case *ast.SwitchStmt:
		if st.Init != nil {
			fs.stmt(env, st.Init)
		}
		if st.Tag != nil {
			fs.eval(env, st.Tag)
		}
		fs.branches(env, st.Body, true)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			fs.stmt(env, st.Init)
		}
		fs.stmt(env, st.Assign)
		fs.branches(env, st.Body, false)
	case *ast.SelectStmt:
		fs.branches(env, st.Body, false)
	case *ast.CaseClause:
		for _, e := range st.List {
			fs.eval(env, e)
		}
		for _, inner := range st.Body {
			fs.stmt(env, inner)
		}
	case *ast.CommClause:
		if st.Comm != nil {
			fs.stmt(env, st.Comm)
		}
		for _, inner := range st.Body {
			fs.stmt(env, inner)
		}
	case *ast.ReturnStmt:
		fs.ret(env, st)
	case *ast.LabeledStmt:
		fs.stmt(env, st.Stmt)
	case *ast.GoStmt:
		fs.call(env, st.Call, goCall)
	case *ast.DeferStmt:
		fs.call(env, st.Call, deferCall)
	case *ast.SendStmt:
		fs.eval(env, st.Chan)
		fs.eval(env, st.Value)
	case *ast.IncDecStmt:
		// x++ both reads and writes x: evaluate, then store, so write
		// checks (guarded fields) fire alongside read checks. The engine
		// cannot synthesize the implicit ±1 operand, so the stored value
		// is conservative bottom — subsequent reads fall back to Atom.
		fs.eval(env, st.X)
		fs.store(env, st.X, nil, sem.Bottom())
	}
}

// terminates reports whether s cannot fall through to the statement
// after it on the straight-line path: every suffix ends in a return, an
// explicit jump, panic, or a no-return call. Terminated branch arms are
// excluded from the merge after the branch, so the canonical
//
//	mu.Lock()
//	if cached { mu.Unlock(); return v }
//	…still holding mu…
//
// keeps its lock. break/continue/goto count as terminating for the
// local join even though their state reaches an enclosing construct;
// for a warn-only linter, dropping that contribution trades rare false
// negatives for fewer join-pollution false positives.
func (fs *funcScope[V]) terminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok != token.FALLTHROUGH
	case *ast.BlockStmt:
		return len(st.List) > 0 && fs.terminates(st.List[len(st.List)-1])
	case *ast.IfStmt:
		return st.Else != nil && fs.terminates(st.Body) && fs.terminates(st.Else)
	case *ast.LabeledStmt:
		return fs.terminates(st.Stmt)
	case *ast.ExprStmt:
		return fs.isNoReturn(st.X)
	}
	return false
}

// isNoReturn recognizes calls that never return: the panic builtin,
// os.Exit, and log.Fatal*.
func (fs *funcScope[V]) isNoReturn(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := fs.objectOf(fun).(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	case *ast.SelectorExpr:
		if f, ok := fs.objectOf(fun.Sel).(*types.Func); ok {
			full := f.FullName()
			return full == "os.Exit" || strings.HasPrefix(full, "log.Fatal")
		}
	}
	return false
}

// loop runs body to a bounded fixpoint, always joining the entry state
// so zero-iteration executions stay represented.
func (fs *funcScope[V]) loop(env *Env[V], body func(*Env[V])) {
	sem := fs.in.Sem
	for pass := 0; pass < maxLoopPasses; pass++ {
		bodyEnv := env.clone()
		body(bodyEnv)
		if !env.joinInto(sem.Join, sem.Bottom(), bodyEnv) {
			return
		}
	}
}

// branches interprets each clause of a switch/select body on its own
// copy of env and joins the results. withPre additionally joins the
// pre-state, covering the no-case-taken path of an expression switch
// without a default clause; the engine keeps it on always (a clause may
// be skipped by a panic-free fallthrough structure the engine does not
// track precisely).
func (fs *funcScope[V]) branches(env *Env[V], body *ast.BlockStmt, withPre bool) {
	sem := fs.in.Sem
	merged := env.clone()
	for _, clause := range body.List {
		clauseEnv := env.clone()
		fs.stmt(clauseEnv, clause)
		if !fs.clauseTerminates(clause) {
			merged.joinInto(sem.Join, sem.Bottom(), clauseEnv)
		}
	}
	*env = *merged
}

// clauseTerminates reports whether a case/comm clause's body cannot fall
// through to the statement after the switch/select.
func (fs *funcScope[V]) clauseTerminates(clause ast.Stmt) bool {
	var list []ast.Stmt
	switch c := clause.(type) {
	case *ast.CaseClause:
		list = c.Body
	case *ast.CommClause:
		list = c.Body
	}
	return len(list) > 0 && fs.terminates(list[len(list)-1])
}

// decl interprets a local var/const declaration.
func (fs *funcScope[V]) decl(env *Env[V], st *ast.DeclStmt) {
	sem := fs.in.Sem
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			call, _ := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
			fs.eval(env, vs.Values[0])
			for i, name := range vs.Names {
				v := sem.Bottom()
				if call != nil {
					v = sem.Result(call, i)
				}
				fs.store(env, name, nil, v)
			}
			continue
		}
		for i, name := range vs.Names {
			var v V = sem.Bottom()
			var rhs ast.Expr
			if i < len(vs.Values) {
				rhs = vs.Values[i]
				v = fs.eval(env, rhs)
			}
			fs.store(env, name, rhs, v)
		}
	}
}

// ret evaluates a return statement's results, resolving naked returns
// from the named-result bindings.
func (fs *funcScope[V]) ret(env *Env[V], st *ast.ReturnStmt) {
	fs.sync(env)
	sem := fs.in.Sem
	var vals []V
	if len(st.Results) == 0 && len(fs.resultObjs) > 0 {
		for _, obj := range fs.resultObjs {
			v := sem.Bottom()
			if obj != nil {
				if ev, ok := env.Get(obj); ok {
					v = ev
				}
			}
			vals = append(vals, v)
		}
	} else if len(st.Results) == 1 && countResults(fs.fn) > 1 {
		// return f() forwarding multiple results.
		fs.eval(env, st.Results[0])
		if call, ok := ast.Unparen(st.Results[0]).(*ast.CallExpr); ok {
			for i := 0; i < countResults(fs.fn); i++ {
				vals = append(vals, sem.Result(call, i))
			}
		}
	} else {
		for _, r := range st.Results {
			vals = append(vals, fs.eval(env, r))
		}
	}
	sem.Return(fs.fn, st, vals)
}

// countResults returns the declared result count of fn.
func countResults(fn ast.Node) int {
	var ft *ast.FuncType
	switch f := fn.(type) {
	case *ast.FuncDecl:
		ft = f.Type
	case *ast.FuncLit:
		ft = f.Type
	}
	if ft == nil || ft.Results == nil {
		return 0
	}
	n := 0
	for _, f := range ft.Results.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}
