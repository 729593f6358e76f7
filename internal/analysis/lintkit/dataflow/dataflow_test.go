package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"testing"

	"mheta/internal/analysis/lintkit"
	"mheta/internal/analysis/lintkit/dataflow"
)

// The test domain is integer parity: a four-point lattice
// bottom < {even, odd} < top. It exercises every engine feature the
// units analyzer relies on — joins at branch merges, loop fixpoints,
// multi-assign results, closures, naked returns — with arithmetic
// simple enough to verify by hand.
type parity uint8

const (
	pBottom parity = iota
	pEven
	pOdd
	pTop
)

func (p parity) String() string {
	return [...]string{"bottom", "even", "odd", "top"}[p]
}

// paritySem implements dataflow.Semantics[parity]. Returns are recorded
// per function name so tests can assert on the inferred parity of each
// result.
type paritySem struct {
	info    *types.Info
	returns map[string][]parity
}

func (s *paritySem) Bottom() parity { return pBottom }

func (s *paritySem) Join(a, b parity) parity {
	switch {
	case a == pBottom:
		return b
	case b == pBottom:
		return a
	case a == b:
		return a
	default:
		return pTop
	}
}

func (s *paritySem) Atom(e ast.Expr) parity {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.INT {
		n, err := strconv.Atoi(lit.Value)
		if err == nil {
			if n%2 == 0 {
				return pEven
			}
			return pOdd
		}
	}
	return pTop
}

func (s *paritySem) Unary(e *ast.UnaryExpr, x parity) parity {
	if e.Op == token.SUB { // -x preserves parity
		return x
	}
	return pTop
}

func (s *paritySem) binOp(op token.Token, x, y parity) parity {
	if x == pBottom || x == pTop || y == pBottom || y == pTop {
		return pTop
	}
	switch op {
	case token.ADD, token.SUB:
		if x == y {
			return pEven
		}
		return pOdd
	case token.MUL:
		if x == pEven || y == pEven {
			return pEven
		}
		return pOdd
	}
	return pTop
}

func (s *paritySem) Binary(e *ast.BinaryExpr, x, y parity) parity {
	return s.binOp(e.Op, x, y)
}

func (s *paritySem) OpAssign(e *ast.AssignStmt, op token.Token, lhs, rhs parity) parity {
	return s.binOp(op, lhs, rhs)
}

func (s *paritySem) Index(e *ast.IndexExpr, x parity) parity { return pTop }

func (s *paritySem) Call(e *ast.CallExpr, eval dataflow.Eval[parity]) parity {
	for _, a := range e.Args {
		eval(a)
	}
	// double(x) is even whatever x is; everything else is unknown.
	if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "double" {
		return pEven
	}
	return pTop
}

func (s *paritySem) Result(call *ast.CallExpr, i int) parity {
	// evenOdd() returns (even, odd).
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "evenOdd" {
		if i == 0 {
			return pEven
		}
		return pOdd
	}
	return pTop
}

func (s *paritySem) Bind(lhs ast.Expr, obj types.Object, rhs ast.Expr, v parity) parity {
	return v
}

func (s *paritySem) Range(rs *ast.RangeStmt, x parity) (parity, parity) {
	return pTop, pTop
}

func (s *paritySem) Composite(lit *ast.CompositeLit, kv *ast.KeyValueExpr, v parity) {}

func (s *paritySem) Enter(fn ast.Node, ft *ast.FuncType, env *dataflow.Env[parity]) {
	// Parameters named e* start even, o* start odd; others unknown.
	if ft.Params == nil {
		return
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			v := pTop
			switch name.Name[0] {
			case 'e':
				v = pEven
			case 'o':
				v = pOdd
			}
			env.Set(s.info.Defs[name], v)
		}
	}
}

func (s *paritySem) Return(fn ast.Node, ret *ast.ReturnStmt, vals []parity) {
	name := "lit"
	if fd, ok := fn.(*ast.FuncDecl); ok {
		name = fd.Name.Name
	}
	s.returns[name] = append(s.returns[name], vals...)
}

// analyze type-checks src and runs the parity interpreter over every
// top-level function, returning the recorded return parities.
func analyze(t *testing.T, src string) map[string][]parity {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, info, err := lintkit.Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	sem := &paritySem{info: info, returns: map[string][]parity{}}
	in := &dataflow.Interp[parity]{Info: info, Sem: sem}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			in.Func(fd)
		}
	}
	return sem.returns
}

func expectReturns(t *testing.T, got map[string][]parity, fn string, want ...parity) {
	t.Helper()
	g := got[fn]
	if len(g) != len(want) {
		t.Fatalf("%s: returns %v, want %v", fn, g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Errorf("%s: return %d = %v, want %v", fn, i, g[i], want[i])
		}
	}
}

func TestStraightLine(t *testing.T) {
	rets := analyze(t, `package p

func double(x int) int { return 2 * x }

func f() int {
	x := 2
	y := x + 1
	z := y * 3
	return z
}
`)
	expectReturns(t, rets, "f", pOdd) // (2+1)*3: odd*odd=odd
}

func TestBranchJoin(t *testing.T) {
	rets := analyze(t, `package p

func agree(cond bool) int {
	x := 0
	if cond {
		x = 2
	} else {
		x = 4
	}
	return x
}

func disagree(cond bool) int {
	x := 0
	if cond {
		x = 1
	}
	return x
}
`)
	expectReturns(t, rets, "agree", pEven)
	// 0 joined with 1 across the one-armed if: even ⊔ odd = top.
	expectReturns(t, rets, "disagree", pTop)
}

func TestLoopFixpoint(t *testing.T) {
	rets := analyze(t, `package p

func stable(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += 2
	}
	return x
}

func unstable(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += 1
	}
	return x
}
`)
	// Adding 2 preserves evenness through the fixpoint.
	expectReturns(t, rets, "stable", pEven)
	// Adding 1 alternates, so the loop join must reach top, not
	// oscillate or keep the first pass's odd.
	expectReturns(t, rets, "unstable", pTop)
}

func TestRangeLoop(t *testing.T) {
	rets := analyze(t, `package p

func sum(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}
`)
	// Range values are unknown, so total goes to top.
	expectReturns(t, rets, "sum", pTop)
}

func TestMultiAssignResults(t *testing.T) {
	rets := analyze(t, `package p

func evenOdd() (int, int) { return 2, 3 }

func f() int {
	a, b := evenOdd()
	return a + b
}
`)
	expectReturns(t, rets, "evenOdd", pEven, pOdd)
	expectReturns(t, rets, "f", pOdd) // even+odd
}

func TestCallValue(t *testing.T) {
	rets := analyze(t, `package p

func double(x int) int { return 2 * x }

func f(o int) int {
	return double(o) + 1
}
`)
	expectReturns(t, rets, "f", pOdd) // even+odd
}

func TestFuncLitSeesEnclosingEnv(t *testing.T) {
	rets := analyze(t, `package p

func f() {
	x := 2
	g := func() int {
		return x + 4
	}
	_ = g
}
`)
	// The literal's return is recorded under "lit": x (even, from the
	// enclosing env) + 4 = even.
	expectReturns(t, rets, "lit", pEven)
}

func TestNakedReturn(t *testing.T) {
	rets := analyze(t, `package p

func f() (r int) {
	r = 4
	return
}
`)
	expectReturns(t, rets, "f", pEven)
}

func TestSwitchJoin(t *testing.T) {
	rets := analyze(t, `package p

func f(n int) int {
	x := 0
	switch n {
	case 1:
		x = 2
	case 2:
		x = 6
	}
	return x
}
`)
	// All paths (both cases and the fall-through pre-state) are even.
	expectReturns(t, rets, "f", pEven)
}

func TestEnterSeedsParams(t *testing.T) {
	rets := analyze(t, `package p

func f(e1, o1 int) (int, int) {
	return e1 + e1, e1 + o1
}
`)
	expectReturns(t, rets, "f", pEven, pOdd)
}

func TestTerminatedArmExcludedFromJoin(t *testing.T) {
	rets := analyze(t, `package p

func f(c bool) int {
	x := 2
	if c {
		x = 1
		return x
	}
	return x + 1
}
`)
	// The then-arm ends in return, so its x=1 must not pollute the
	// straight-line join: the second return sees x still even.
	expectReturns(t, rets, "f", pOdd, pOdd)
}

func TestTerminatedSwitchClauseExcluded(t *testing.T) {
	rets := analyze(t, `package p

func f(n int) int {
	x := 2
	switch n {
	case 1:
		x = 3
		return x
	case 2:
		x = 4
	}
	return x + 1
}
`)
	// case 1 returns; the merge joins only the pre-state (2) and
	// case 2 (4), both even.
	expectReturns(t, rets, "f", pOdd, pOdd)
}

func TestPanicArmExcludedFromJoin(t *testing.T) {
	rets := analyze(t, `package p

func f(c bool) int {
	x := 2
	if c {
		x = 1
		panic("no")
	}
	return x + 1
}
`)
	expectReturns(t, rets, "f", pOdd)
}

func TestFuncLitInCallPosition(t *testing.T) {
	rets := analyze(t, `package p

func f() int {
	x := 2
	v := func() int { return x + 1 }()
	go func() { _ = x + 3 }()
	defer func() int { return x + 5 }()
	return v
}
`)
	// All three literal bodies — immediately invoked, go'd, defer'd —
	// are analyzed against the enclosing bindings: x+1 and x+5 are odd.
	// (The go'd literal's statement is not a return, so only two records.)
	expectReturns(t, rets, "lit", pOdd, pOdd)
}

func TestIncDecStoresConservatively(t *testing.T) {
	rets := analyze(t, `package p

func f() int {
	x := 1
	x++
	return x
}
`)
	// The engine cannot track the ±1, so x degrades to unknown rather
	// than keeping the stale pre-increment parity.
	expectReturns(t, rets, "f", pTop)
}

func TestOpAssignOnDeref(t *testing.T) {
	// Stores through non-identifier lvalues must not panic and must
	// still evaluate their sub-expressions.
	rets := analyze(t, `package p

func f(xs []int, o int) int {
	xs[0] = o + o
	return o + 1
}
`)
	expectReturns(t, rets, "f", pEven)
}

// The second test domain exercises the Stateful extension with the
// simplest possible lockset: a held-lock counter. lock()/unlock() bump
// it via CallState, probe() records the state at its call site, and a
// join of differing counts goes to the conflict marker 99. defer'd
// unlocks are recorded but (like guarded's deferred releases) leave the
// count held; go'd calls must not transfer at all.
const lockConflict = 99

type lockSem struct {
	info   *types.Info
	probes []int
	defers []string
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func (s *lockSem) Bottom() int { return 0 }
func (s *lockSem) Join(a, b int) int {
	if a == b {
		return a
	}
	return lockConflict
}
func (s *lockSem) Atom(e ast.Expr) int                                      { return 0 }
func (s *lockSem) Unary(e *ast.UnaryExpr, x int) int                        { return 0 }
func (s *lockSem) Binary(e *ast.BinaryExpr, x, y int) int                   { return 0 }
func (s *lockSem) OpAssign(e *ast.AssignStmt, op token.Token, l, r int) int { return 0 }
func (s *lockSem) Index(e *ast.IndexExpr, x int) int                        { return 0 }
func (s *lockSem) Call(e *ast.CallExpr, eval dataflow.Eval[int]) int {
	for _, a := range e.Args {
		eval(a)
	}
	return 0
}
func (s *lockSem) Result(call *ast.CallExpr, i int) int { return 0 }
func (s *lockSem) Bind(lhs ast.Expr, obj types.Object, rhs ast.Expr, v int) int {
	return v
}
func (s *lockSem) Range(rs *ast.RangeStmt, x int) (int, int)                    { return 0, 0 }
func (s *lockSem) Composite(lit *ast.CompositeLit, kv *ast.KeyValueExpr, v int) {}
func (s *lockSem) Enter(fn ast.Node, ft *ast.FuncType, env *dataflow.Env[int])  {}
func (s *lockSem) Return(fn ast.Node, ret *ast.ReturnStmt, vals []int)          {}

func (s *lockSem) CallState(call *ast.CallExpr, state int) int {
	switch calleeName(call) {
	case "lock":
		return state + 1
	case "unlock":
		return state - 1
	case "probe":
		s.probes = append(s.probes, state)
	}
	return state
}

func (s *lockSem) DeferState(call *ast.CallExpr, state int) int {
	s.defers = append(s.defers, calleeName(call))
	return state
}

func analyzeLocks(t *testing.T, src string) *lockSem {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, info, err := lintkit.Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	sem := &lockSem{info: info}
	in := &dataflow.Interp[int]{Info: info, Sem: sem}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			in.Func(fd)
		}
	}
	return sem
}

const lockHelpers = `package p

func lock()   {}
func unlock() {}
func probe()  {}
`

func TestStatefulTerminatedArmKeepsLock(t *testing.T) {
	sem := analyzeLocks(t, lockHelpers+`
func f(c bool) {
	lock()
	if c {
		unlock()
		return
	}
	probe()
	unlock()
}
`)
	// The early-unlock arm returns, so after the if the lock is still
	// held — the canonical cache-hit pattern must not degrade to a
	// conflicted join.
	if got := sem.probes; len(got) != 1 || got[0] != 1 {
		t.Errorf("probes = %v, want [1]", got)
	}
}

func TestStatefulConflictedJoin(t *testing.T) {
	sem := analyzeLocks(t, lockHelpers+`
func f(c bool) {
	if c {
		lock()
	}
	probe()
}
`)
	// Conditional locking with no terminator: held-on-one-path joins to
	// the conflict marker.
	if got := sem.probes; len(got) != 1 || got[0] != lockConflict {
		t.Errorf("probes = %v, want [%d]", got, lockConflict)
	}
}

func TestStatefulDeferDoesNotReleaseEarly(t *testing.T) {
	sem := analyzeLocks(t, lockHelpers+`
func f() {
	lock()
	defer unlock()
	probe()
}
`)
	if got := sem.probes; len(got) != 1 || got[0] != 1 {
		t.Errorf("probes = %v, want [1]", got)
	}
	if len(sem.defers) != 1 || sem.defers[0] != "unlock" {
		t.Errorf("defers = %v, want [unlock]", sem.defers)
	}
}

func TestStatefulGoCallDoesNotTransfer(t *testing.T) {
	sem := analyzeLocks(t, lockHelpers+`
func f() {
	go lock()
	probe()
}
`)
	if got := sem.probes; len(got) != 1 || got[0] != 0 {
		t.Errorf("probes = %v, want [0]", got)
	}
}

func TestStatefulSpawnedLiteralStartsFromBottom(t *testing.T) {
	sem := analyzeLocks(t, lockHelpers+`
func f() {
	lock()
	go func() {
		probe()
	}()
	defer func() {
		probe()
	}()
	probe()
	unlock()
}
`)
	// A new goroutine holds none of its spawner's locks: the spawned
	// body starts from Bottom (0 here), while a deferred literal and the
	// spawner's own path still run with the lock held.
	if got := sem.probes; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 1 {
		t.Errorf("probes = %v, want [0 1 1]", got)
	}
}

func TestStatefulLoopJoin(t *testing.T) {
	sem := analyzeLocks(t, lockHelpers+`
func f(n int) {
	for i := 0; i < n; i++ {
		lock()
		probe()
		unlock()
	}
	probe()
}
`)
	// Balanced acquire/release in the body: inside the loop the lock is
	// held on every pass, after the loop it is not.
	for _, p := range sem.probes[:len(sem.probes)-1] {
		if p != 1 {
			t.Errorf("in-loop probes = %v, want all 1", sem.probes)
			break
		}
	}
	if last := sem.probes[len(sem.probes)-1]; last != 0 {
		t.Errorf("post-loop probe = %d, want 0", last)
	}
}
