// Package leakcheck implements the mheta-lint goroutine-termination
// analyzer (DESIGN.md §5.16). A long-lived server (internal/serve) leaks
// whatever goroutine it cannot stop, so every `go` statement needs a
// termination path. The spawned function — its body plus every
// same-package function statically reachable from it, with nested `go`
// subtrees carved out as spawn sites of their own — must either be
// loop-free (bounded, conditioned loops count as free), have every
// potentially-infinite loop receive a stop signal (a `<-ctx.Done()`
// receive, a receive from a channel `close()`d somewhere in the package,
// or a comma-ok receive) alongside a way out (return/break), or carry a
// `//mheta:lifecycle waitgroup` annotation on the spawn. The annotation
// is verified, not trusted: it demands a sync.WaitGroup Add before the
// spawn and a deferred Done on that WaitGroup in the spawned function.
//
// Scope and deliberate approximations (warn-only, like every analyzer
// in this suite): only non-test files are analyzed — tests are bounded
// by the test runner's deadline, and goroutines spawned there die with
// the process. Dynamic callees (interface methods, function values)
// are assumed to terminate, and channels selected through slices or
// maps are not tracked.
package leakcheck

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"mheta/internal/analysis/lintkit"
)

// Analyzer is the leakcheck analyzer, for registration with lintkit.
var Analyzer = &lintkit.Analyzer{
	Name: "leakcheck",
	Doc:  "goroutines must provably terminate: a stop signal in every unbounded loop, or a verified //mheta:lifecycle waitgroup",
	Run:  run,
}

func run(pass *lintkit.Pass) (any, error) {
	c := &checker{
		pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		closed:   map[types.Object]bool{},
		consumed: map[token.Pos]bool{},
	}
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			c.files = append(c.files, f)
		}
	}
	c.collect()
	for _, sp := range c.spawns {
		c.checkSpawn(sp)
	}
	for _, f := range c.files {
		for _, d := range lintkit.ParseDirectives(f) {
			if d.Kind == "mheta" && d.Name == "lifecycle" && !c.consumed[d.Pos] {
				pass.Reportf(d.Pos, "//mheta:lifecycle must sit on a go statement (same line or the line above)")
			}
		}
	}
	return nil, nil
}

// spawn is one `go` statement and its resolved callee.
type spawn struct {
	stmt      *ast.GoStmt
	enclosing ast.Node     // function node the go statement sits in
	target    *types.Func  // resolved declared callee, nil otherwise
	lit       *ast.FuncLit // literal callee, nil otherwise
}

type checker struct {
	pass *lintkit.Pass
	// files is the non-test subset of the package: leaks are a property
	// of long-lived production goroutines, and the vettool mode feeds
	// test variants through the same pass.
	files []*ast.File
	// decls maps each function declared in those files to its body.
	decls map[*types.Func]*ast.FuncDecl
	// closed holds every channel object (field, package var, or local)
	// that some close() call in the package targets.
	closed   map[types.Object]bool
	spawns   []*spawn
	consumed map[token.Pos]bool
}

// collect makes one pass over every non-test file, gathering the
// declarations, the closed channels and the spawn sites.
func (c *checker) collect() {
	info := c.pass.TypesInfo
	lintkit.WithStack(c.files, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := info.Defs[x.Name].(*types.Func); ok && x.Body != nil {
				c.decls[fn] = x
			}
		case *ast.CallExpr:
			if b, ok := c.pass.CalleeObject(x).(*types.Builtin); ok && b.Name() == "close" && len(x.Args) == 1 {
				if obj := c.varObj(x.Args[0]); obj != nil {
					c.closed[obj] = true
				}
			}
		case *ast.GoStmt:
			sp := &spawn{stmt: x, enclosing: enclosingFunc(stack)}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				sp.lit = lit
			} else {
				sp.target, _ = c.pass.CalleeObject(x.Call).(*types.Func)
			}
			c.spawns = append(c.spawns, sp)
		}
		return true
	})
}

// ---- goroutine lifecycle ----

func (c *checker) checkSpawn(sp *spawn) {
	bodies := c.spawnBodies(sp)
	if dirs := c.pass.MhetaAt(sp.stmt.Pos(), "lifecycle"); len(dirs) > 0 {
		for _, d := range dirs {
			c.consumed[d.Pos] = true
		}
		c.verifyLifecycle(sp, bodies, dirs[0])
		return
	}
	for _, issue := range c.unprovenLoops(bodies) {
		c.pass.Reportf(sp.stmt.Pos(), "goroutine may never terminate: %s; select on ctx.Done()/a closed channel inside it, or annotate the go statement //mheta:lifecycle waitgroup", issue)
	}
}

// spawnBodies returns the spawned function node plus every same-package
// declared function statically reachable from it. Nested go statements
// are excluded — each is a spawn site with its own obligations — and
// dynamic callees (interface methods, function values) are invisible, a
// documented approximation.
func (c *checker) spawnBodies(sp *spawn) []ast.Node {
	var start ast.Node = sp.lit
	seen := map[*types.Func]bool{}
	if sp.lit == nil {
		fd, ok := c.decls[sp.target]
		if !ok {
			return nil
		}
		seen[sp.target] = true
		start = fd
	}
	var bodies []ast.Node
	var add func(n ast.Node)
	add = func(n ast.Node) {
		bodies = append(bodies, n)
		ast.Inspect(funcBody(n), func(x ast.Node) bool {
			if _, isGo := x.(*ast.GoStmt); isGo {
				return false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || seen[fn] {
				return true
			}
			if fd, declared := c.decls[fn]; declared {
				seen[fn] = true
				add(fd)
			}
			return true
		})
	}
	add(start)
	return bodies
}

// unprovenLoops describes every potentially-infinite loop in the spawned
// bodies that has no visible termination path.
func (c *checker) unprovenLoops(bodies []ast.Node) []string {
	var out []string
	for _, b := range bodies {
		ast.Inspect(funcBody(b), func(n ast.Node) bool {
			switch l := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.ForStmt:
				if l.Cond != nil && !c.constTrue(l.Cond) {
					return true
				}
				if c.loopSignaled(l.Body) && hasEscape(l.Body) {
					return true
				}
				out = append(out, fmt.Sprintf("the loop at line %d has no stop signal", c.pass.Fset.Position(l.Pos()).Line))
			case *ast.RangeStmt:
				if c.isChanExpr(l.X) && !c.closed[c.varObj(l.X)] {
					out = append(out, fmt.Sprintf("the range over %s at line %d never ends (the channel is never closed in this package)",
						types.ExprString(l.X), c.pass.Fset.Position(l.Pos()).Line))
				}
			}
			return true
		})
	}
	return out
}

// loopSignaled reports whether the loop body can observe a stop signal:
// a ctx.Done() receive, a receive from a channel closed in the package,
// or a comma-ok receive. Nested function literals and go statements do
// not signal this loop.
func (c *checker) loopSignaled(body ast.Stmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && (c.calledFullName(x.X) == "(context.Context).Done" || c.closed[c.varObj(x.X)]) {
				found = true
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == 2 && len(x.Rhs) == 1 {
				if u, ok := ast.Unparen(x.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// hasEscape reports whether the loop body contains a way out — a return
// or a break — outside nested functions and go statements.
func hasEscape(body ast.Stmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			found = found || x.Tok == token.BREAK
		}
		return !found
	})
	return found
}

// verifyLifecycle checks the mechanism a //mheta:lifecycle annotation
// names. The annotation replaces the loop obligations, so a wrong or
// unverifiable mechanism is itself a finding: the spawning function must
// Add to a WaitGroup before the go statement, and the spawned function
// must defer Done on that same WaitGroup, which runs on every way out.
func (c *checker) verifyLifecycle(sp *spawn, bodies []ast.Node, d lintkit.Directive) {
	if d.Args != "waitgroup" {
		c.pass.Reportf(sp.stmt.Pos(), "//mheta:lifecycle takes one mechanism, \"waitgroup\" (got %q)", d.Args)
		return
	}
	added := map[types.Object]bool{}
	ast.Inspect(funcBody(sp.enclosing), func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() < sp.stmt.Pos() {
			if wg := c.waitGroupCall(call, "Add"); wg != nil {
				added[wg] = true
			}
		}
		return true
	})
	if len(added) == 0 {
		c.pass.Reportf(sp.stmt.Pos(), "//mheta:lifecycle waitgroup: no sync.WaitGroup Add call precedes the go statement in the spawning function")
		return
	}
	deferred := false
	if len(bodies) > 0 {
		ast.Inspect(funcBody(bodies[0]), func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.DeferStmt:
				deferred = deferred || added[c.waitGroupCall(x.Call, "Done")]
			}
			return true
		})
	}
	if !deferred {
		c.pass.Reportf(sp.stmt.Pos(), "//mheta:lifecycle waitgroup: the spawned function never defers Done on a WaitGroup added before the go statement")
	}
}

// waitGroupCall returns the WaitGroup variable or field behind a
// `wg.<method>()` call on a sync.WaitGroup, else nil.
func (c *checker) waitGroupCall(call *ast.CallExpr, method string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || c.calledFullName(call) != "(*sync.WaitGroup)."+method {
		return nil
	}
	return c.varObj(sel.X)
}

// ---- shared helpers ----

// varObj resolves the stable object behind a channel or WaitGroup
// expression: the identifier's variable, or the field a selector names. Index and call
// results have no stable identity and return nil.
func (c *checker) varObj(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.ObjectOf(x)
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.ObjectOf(x.Sel)
	}
	return nil
}

func (c *checker) calledFullName(e ast.Expr) string {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if fn, ok := c.pass.CalleeObject(call).(*types.Func); ok {
			return fn.FullName()
		}
	}
	return ""
}

func (c *checker) constTrue(e ast.Expr) bool {
	v := c.pass.TypesInfo.Types[e].Value
	return v != nil && v.Kind() == constant.Bool && constant.BoolVal(v)
}

func (c *checker) isChanExpr(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
