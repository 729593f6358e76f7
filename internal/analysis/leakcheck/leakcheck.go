// Package leakcheck implements the mheta-lint goroutine-lifecycle,
// channel-discipline and context-propagation analyzer for the serving
// stack (DESIGN.md §5.16). It machine-checks the three properties a
// long-lived server (internal/serve) leaks without:
//
//   - Every `go` statement needs a termination path. The spawned
//     function — its body plus every same-package function statically
//     reachable from it, with nested `go` subtrees carved out as spawn
//     sites of their own — must either be loop-free (bounded,
//     conditioned loops count as free), have every potentially-infinite
//     loop receive a stop signal (a `<-ctx.Done()` receive, a receive
//     from a channel `close()`d somewhere in the package, or a comma-ok
//     receive) alongside a way out (return/break), or carry a
//     `//mheta:lifecycle <stopChan|waitgroup>` annotation on the spawn.
//     The named mechanism is verified, not trusted: `waitgroup` demands
//     a sync.WaitGroup Add before the spawn and a Done inside the
//     spawned body; a stop-channel name must resolve to a channel that
//     is closed in the package and received by the goroutine.
//
//   - A channel send must not be able to block forever. A send is in
//     discipline when it sits in a select with a default or cancellation
//     arm, when its channel has a dedicated receiver inside a spawned
//     goroutine (a queue drained by a worker loop), or when the channel
//     is provably buffered with statically bounded senders: a
//     function-local `make(chan T, k)` sent outside any loop, or a
//     per-iteration channel rooted at a range variable (per-request
//     reply channels answered in a loop). A buffered channel shared through a struct field
//     gets no such pass — its buffer fills across calls, which is
//     exactly the admission-queue shape that must shed via select
//     instead. `//mheta:sendsafe <reason>` records a discipline the
//     analysis cannot see.
//
//   - A context.Context parameter must actually govern the function.
//     Handing a ctx-taking callee context.Background()/context.TODO()
//     while ctx is in scope is a dropped-ctx finding; an unbounded loop
//     that never checks Done/Err (or an equivalent close signal) is a
//     finding; a ctx parameter that is never referenced at all while the
//     body blocks (send, receive, bare select, a callee that takes a
//     ctx, a WaitGroup.Wait, or an entry in the external.go blocking
//     mirror) is a finding.
//
// Scope and deliberate approximations (warn-only, like every analyzer
// in this suite): only non-test files are analyzed — tests are bounded
// by the test runner's deadline, and goroutines spawned there die with
// the process. Dynamic callees (interface methods, function values)
// are assumed to terminate; channels selected through slices or maps
// are not tracked; a buffered channel laundered through a local
// rebinding of a shared field escapes the shared-buffer rule. The
// external.go mirror carries cross-package blocking contracts the same
// way units and guarded mirror theirs.
package leakcheck

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"mheta/internal/analysis/lintkit"
	"mheta/internal/analysis/lintkit/dataflow"
)

// Analyzer is the leakcheck analyzer, for registration with lintkit.
var Analyzer = &lintkit.Analyzer{
	Name: "leakcheck",
	Doc:  "goroutines must provably terminate, channel sends must not block forever, and contexts must reach the loops they cancel",
	Run:  run,
}

func run(pass *lintkit.Pass) (any, error) {
	c := newChecker(pass)
	if len(c.files) == 0 {
		return nil, nil
	}
	c.collect()
	c.checkSpawns()
	c.checkCtx()
	// The send rule runs on the dataflow engine so channel values flow
	// through locals: `ch := make(chan T, 1)` still reads as buffered at
	// `ch <- v` three branches later. Function literals are analyzed in
	// place by the engine.
	for _, f := range c.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				c.interp.Func(fd)
			}
		}
	}
	c.validate()
	return nil, nil
}

// spawn is one `go` statement and its resolved callee.
type spawn struct {
	stmt      *ast.GoStmt
	enclosing ast.Node     // function node the go statement sits in
	target    *types.Func  // resolved declared callee, nil otherwise
	lit       *ast.FuncLit // literal callee, nil otherwise
	bodies    []ast.Node   // spawn-reachable function nodes (filled by checkSpawns)
}

// sendSite is the syntactic context of one channel send, precomputed so
// the dataflow hook only has to classify.
type sendSite struct {
	enclosing  ast.Node // innermost function node the send sits in
	outer      ast.Node // outermost: the declaration whose call owns the frame
	selectSafe bool     // comm of a select with a default or cancellation arm
	inLoop     bool     // a for/range encloses the send within its function
	loopVars   map[types.Object]bool
	annotated  bool // valid //mheta:sendsafe with a reason
}

// val is the send rule's lattice: what the analysis knows about a
// channel-typed expression's buffering.
type val uint8

const (
	vBottom  val = iota // no information yet
	vBuf                // every visible make has a constant capacity >= 1
	vUnbuf              // made unbuffered somewhere
	vUnknown            // conflicting, non-constant, or untracked
)

type checker struct {
	pass   *lintkit.Pass
	interp *dataflow.Interp[val]
	cg     *lintkit.CallGraph

	// files is the non-test subset of the package: leaks are a property
	// of long-lived production goroutines, and the vettool mode feeds
	// test variants through the same pass.
	files []*ast.File

	directives []lintkit.Directive
	consumed   map[token.Pos]bool
	codeLines  map[string]map[int]bool
	seen       map[string]bool

	// closed holds every channel object (field, package var, or local)
	// that some close() call in the package targets.
	closed map[types.Object]bool
	// bufMake records, per channel object, whether every visible
	// make(chan ...) assigned to it has a constant capacity >= 1.
	bufMake map[types.Object]bool
	// dedicated holds channel objects received inside a spawned
	// goroutine's reachable bodies — sends to them have a drain.
	dedicated map[types.Object]bool

	spawns      []*spawn
	sends       map[*ast.SendStmt]*sendSite
	sendChecked map[token.Pos]bool
}

func newChecker(pass *lintkit.Pass) *checker {
	c := &checker{
		pass:        pass,
		consumed:    map[token.Pos]bool{},
		codeLines:   map[string]map[int]bool{},
		seen:        map[string]bool{},
		closed:      map[types.Object]bool{},
		bufMake:     map[types.Object]bool{},
		dedicated:   map[types.Object]bool{},
		sends:       map[*ast.SendStmt]*sendSite{},
		sendChecked: map[token.Pos]bool{},
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		c.files = append(c.files, f)
	}
	c.cg = lintkit.NewCallGraph(c.files, pass.TypesInfo)
	c.interp = &dataflow.Interp[val]{Info: pass.TypesInfo, Sem: c}
	return c
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	p := c.pass.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	key := p.String() + "\x00" + msg
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.pass.Report(lintkit.Diagnostic{Pos: pos, Message: msg})
}

// ---- package-fact collection ----

// collect makes one pass over every non-test file, gathering the
// package facts (closed channels, make capacities, spawn and send
// sites with their syntactic context) the rules consume.
func (c *checker) collect() {
	for _, f := range c.files {
		for _, d := range lintkit.ParseDirectives(f) {
			if d.Kind == "mheta" {
				c.directives = append(c.directives, d)
			}
		}
	}
	for _, f := range c.files {
		c.scanFile(f)
	}
}

func (c *checker) scanFile(f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			c.noteClose(x)
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					c.noteMake(c.chanObj(x.Lhs[i]), x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					c.noteMake(c.pass.TypesInfo.ObjectOf(x.Names[i]), x.Values[i])
				}
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					c.noteMake(c.pass.TypesInfo.ObjectOf(key), kv.Value)
				}
			}
		case *ast.GoStmt:
			c.spawns = append(c.spawns, c.newSpawn(x, stack))
		case *ast.SendStmt:
			c.sends[x] = c.newSendSite(x, stack)
		}
		stack = append(stack, n)
		return true
	})
}

// noteClose records the channel object behind close(ch).
func (c *checker) noteClose(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return
	}
	if b, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "close" {
		return
	}
	if obj := c.chanObj(call.Args[0]); obj != nil {
		c.closed[obj] = true
	}
}

// noteMake records whether a make(chan ...) bound to obj is provably
// buffered. Several make sites for one object conjoin: any unbuffered
// or non-constant one drops the proof.
func (c *checker) noteMake(obj types.Object, rhs ast.Expr) {
	if obj == nil {
		return
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !c.isMakeChan(call) {
		return
	}
	buffered := c.makeIsBuffered(call)
	if prev, seen := c.bufMake[obj]; seen {
		buffered = buffered && prev
	}
	c.bufMake[obj] = buffered
}

func (c *checker) isMakeChan(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) < 1 {
		return false
	}
	if b, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[call.Args[0]]
	return ok && tv.IsType() && isChanType(tv.Type)
}

func (c *checker) makeIsBuffered(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	v := c.pass.TypesInfo.Types[call.Args[1]].Value
	return v != nil && constant.Compare(v, token.GEQ, constant.MakeInt64(1))
}

func (c *checker) newSpawn(st *ast.GoStmt, stack []ast.Node) *spawn {
	sp := &spawn{stmt: st, enclosing: enclosingFunc(stack)}
	switch f := ast.Unparen(st.Call.Fun).(type) {
	case *ast.FuncLit:
		sp.lit = f
	case *ast.Ident:
		sp.target, _ = c.pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		sp.target, _ = c.pass.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	return sp
}

func (c *checker) newSendSite(send *ast.SendStmt, stack []ast.Node) *sendSite {
	site := &sendSite{loopVars: map[types.Object]bool{}}
	for i := 0; i < len(stack); i++ {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			site.outer = stack[i]
		}
		if site.outer != nil {
			break
		}
	}
walk:
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			site.enclosing = stack[i]
			break walk
		case *ast.RangeStmt:
			site.inLoop = true
			for _, e := range [2]ast.Expr{p.Key, p.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
						site.loopVars[obj] = true
					}
				}
			}
		case *ast.ForStmt:
			site.inLoop = true
		case *ast.CommClause:
			if p.Comm == ast.Stmt(send) {
				for j := i - 1; j >= 0; j-- {
					if sel, ok := stack[j].(*ast.SelectStmt); ok {
						site.selectSafe = c.selectHasEscapeArm(sel)
						break
					}
				}
			}
		}
	}
	pos := c.pass.Fset.Position(send.Pos())
	for _, d := range c.directivesAt(pos, "sendsafe") {
		c.consumed[d.Pos] = true
		if strings.TrimSpace(d.Args) == "" {
			c.reportf(send.Pos(), "//mheta:sendsafe needs a reason explaining why this send cannot block forever")
		} else {
			site.annotated = true
		}
	}
	return site
}

// selectHasEscapeArm reports whether sel can always complete without the
// send: a default arm, or a receive arm that fires on cancellation — a
// ctx.Done() receive, a receive from a channel closed in this package,
// or a comma-ok receive (which fires on close).
func (c *checker) selectHasEscapeArm(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default: the send is non-blocking
		}
		recv, commaOK := recvOf(cc.Comm)
		if recv == nil {
			continue
		}
		if commaOK || c.isCtxDoneCall(recv.X) || c.closed[c.chanObj(recv.X)] {
			return true
		}
	}
	return false
}

// recvOf extracts the receive operation of a comm clause statement and
// whether it uses the comma-ok form.
func recvOf(s ast.Stmt) (*ast.UnaryExpr, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(st.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u, false
		}
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			if u, ok := ast.Unparen(st.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u, len(st.Lhs) == 2
			}
		}
	}
	return nil, false
}

// ---- goroutine lifecycle ----

func (c *checker) checkSpawns() {
	// Reachable bodies first, so dedicated-receiver facts exist before
	// any send is classified (the engine runs after this pass).
	for _, sp := range c.spawns {
		sp.bodies = c.spawnBodies(sp)
		c.noteDedicatedReceivers(sp.bodies)
	}
	for _, sp := range c.spawns {
		pos := c.pass.Fset.Position(sp.stmt.Pos())
		dirs := c.directivesAt(pos, "lifecycle")
		for _, d := range dirs {
			c.consumed[d.Pos] = true
		}
		if len(dirs) > 0 {
			c.verifyLifecycle(sp, dirs[0])
			continue
		}
		for _, issue := range c.unprovenLoops(sp.bodies) {
			c.reportf(sp.stmt.Pos(), "goroutine may never terminate: %s; select on ctx.Done()/a closed channel inside it, or annotate the go statement //mheta:lifecycle <stopChan|waitgroup>", issue)
		}
	}
}

// spawnBodies returns the spawned function node plus every same-package
// declared function statically reachable from it. Nested go statements
// are excluded — each is a spawn site with its own obligations — and
// dynamic callees (interface methods, function values) are invisible, a
// documented approximation.
func (c *checker) spawnBodies(sp *spawn) []ast.Node {
	var start ast.Node
	seen := map[*types.Func]bool{}
	switch {
	case sp.lit != nil:
		start = sp.lit
	case sp.target != nil:
		fd, ok := c.cg.Decls[sp.target]
		if !ok {
			return nil
		}
		seen[sp.target] = true
		start = fd
	default:
		return nil
	}
	var bodies []ast.Node
	var add func(n ast.Node)
	add = func(n ast.Node) {
		bodies = append(bodies, n)
		body := funcBody(n)
		if body == nil {
			return
		}
		ast.Inspect(body, func(x ast.Node) bool {
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
			if fd, declared := c.cg.Decls[fn]; declared {
				seen[fn] = true
				add(fd)
			}
			return true
		})
	}
	add(start)
	return bodies
}

// noteDedicatedReceivers records every channel object received (or
// ranged over) inside spawn-reachable bodies.
func (c *checker) noteDedicatedReceivers(bodies []ast.Node) {
	for _, b := range bodies {
		body := funcBody(b)
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					if obj := c.chanObj(x.X); obj != nil {
						c.dedicated[obj] = true
					}
				}
			case *ast.RangeStmt:
				if c.isChanExpr(x.X) {
					if obj := c.chanObj(x.X); obj != nil {
						c.dedicated[obj] = true
					}
				}
			}
			return true
		})
	}
}

// unprovenLoops describes every potentially-infinite loop in the spawned
// bodies that has no visible termination path.
func (c *checker) unprovenLoops(bodies []ast.Node) []string {
	var out []string
	for _, b := range bodies {
		body := funcBody(b)
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch l := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.ForStmt:
				if l.Cond != nil && !c.constTrue(l.Cond) {
					return true
				}
				if c.loopSignaled(l.Body, false) && hasEscape(l.Body) {
					return true
				}
				out = append(out, fmt.Sprintf("the loop at line %d has no stop signal", c.pass.Fset.Position(l.Pos()).Line))
			case *ast.RangeStmt:
				if c.isChanExpr(l.X) && !c.closed[c.chanObj(l.X)] {
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
// or a comma-ok receive. With allowErrCheck, a plain ctx.Err()/Done()
// call counts too (the deadline-polling idiom of the search loops).
// Nested function literals and go statements do not signal this loop.
func (c *checker) loopSignaled(body ast.Stmt, allowErrCheck bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && (c.isCtxDoneCall(x.X) || c.closed[c.chanObj(x.X)]) {
				found = true
			}
		case *ast.AssignStmt:
			if _, commaOK := recvOf(x); commaOK {
				found = true
			}
		case *ast.CallExpr:
			if allowErrCheck {
				switch c.calledFullName(x) {
				case "(context.Context).Err", "(context.Context).Done":
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
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	})
	return found
}

// verifyLifecycle checks the mechanism a //mheta:lifecycle annotation
// names. The annotation replaces the loop obligations, so a wrong or
// unverifiable mechanism is itself a finding.
func (c *checker) verifyLifecycle(sp *spawn, d lintkit.Directive) {
	args := strings.Fields(d.Args)
	if len(args) != 1 {
		c.reportf(sp.stmt.Pos(), "//mheta:lifecycle needs exactly one mechanism: a stop-channel name or \"waitgroup\"")
		return
	}
	mech := args[0]
	if mech == "waitgroup" {
		if !c.hasWaitGroupCall(sp.enclosing, "(*sync.WaitGroup).Add", sp.stmt.Pos()) {
			c.reportf(sp.stmt.Pos(), "//mheta:lifecycle waitgroup: no sync.WaitGroup Add call precedes the go statement in the spawning function")
		}
		if !c.bodiesHaveCall(sp.bodies, "(*sync.WaitGroup).Done") {
			c.reportf(sp.stmt.Pos(), "//mheta:lifecycle waitgroup: the spawned goroutine never calls sync.WaitGroup Done")
		}
		return
	}
	obj := c.resolveStopChan(sp, mech)
	if obj == nil || !isChanType(obj.Type()) {
		c.reportf(sp.stmt.Pos(), "//mheta:lifecycle %s: names no channel in scope at the go statement", mech)
		return
	}
	if !c.closed[obj] {
		c.reportf(sp.stmt.Pos(), "//mheta:lifecycle %s: stop channel %s is never closed in this package", mech, mech)
	}
	if !c.bodiesReceiveFrom(sp.bodies, obj) {
		c.reportf(sp.stmt.Pos(), "//mheta:lifecycle %s: the spawned goroutine never receives from %s", mech, mech)
	}
}

// hasWaitGroupCall reports whether fn's body calls fullName before pos.
func (c *checker) hasWaitGroupCall(fn ast.Node, fullName string, before token.Pos) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() < before && c.calledFullName(call) == fullName {
			found = true
		}
		return !found
	})
	return found
}

func (c *checker) bodiesHaveCall(bodies []ast.Node, fullName string) bool {
	for _, b := range bodies {
		body := funcBody(b)
		if body == nil {
			continue
		}
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			if _, isGo := n.(*ast.GoStmt); isGo {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && c.calledFullName(call) == fullName {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func (c *checker) bodiesReceiveFrom(bodies []ast.Node, obj types.Object) bool {
	for _, b := range bodies {
		body := funcBody(b)
		if body == nil {
			continue
		}
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && c.chanObj(x.X) == obj {
					found = true
				}
			case *ast.RangeStmt:
				if c.chanObj(x.X) == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// resolveStopChan resolves a stop-channel name at a spawn site: a field
// of the spawned method's receiver, a field of the spawning method's
// receiver, or a lexically visible variable at the go statement.
func (c *checker) resolveStopChan(sp *spawn, name string) types.Object {
	if sp.target != nil {
		if sig, ok := sp.target.Type().(*types.Signature); ok && sig.Recv() != nil {
			if f := fieldByName(sig.Recv().Type(), name); f != nil {
				return f
			}
		}
	}
	if fd, ok := sp.enclosing.(*ast.FuncDecl); ok && fd.Recv != nil {
		if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if f := fieldByName(sig.Recv().Type(), name); f != nil {
					return f
				}
			}
		}
	}
	if scope := c.pass.Pkg.Scope().Innermost(sp.stmt.Pos()); scope != nil {
		if _, obj := scope.LookupParent(name, sp.stmt.Pos()); obj != nil {
			return obj
		}
	}
	return nil
}

// ---- context propagation ----

func (c *checker) checkCtx() {
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				c.checkCtxFunc(fn, fn.Type, fn.Body)
			case *ast.FuncLit:
				c.checkCtxFunc(fn, fn.Type, fn.Body)
			}
			return true
		})
	}
}

func (c *checker) checkCtxFunc(fn ast.Node, ft *ast.FuncType, body *ast.BlockStmt) {
	if body == nil || ft.Params == nil {
		return
	}
	ctxParams := map[types.Object]bool{}
	var first *ast.Ident
	for _, fld := range ft.Params.List {
		for _, name := range fld.Names {
			if name.Name == "_" {
				continue
			}
			obj := c.pass.TypesInfo.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				ctxParams[obj] = true
				if first == nil {
					first = name
				}
			}
		}
	}
	if len(ctxParams) == 0 {
		return
	}
	ctxName := first.Name

	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ctxParams[c.pass.TypesInfo.Uses[id]] {
			used = true
		}
		return !used
	})

	// Dropped ctx: a ctx-taking callee handed a fresh root context while
	// ctx is in scope. Literals with their own ctx parameter are checked
	// on their own.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && c.hasOwnCtxParam(lit) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := c.calledFunc(call)
		if callee == nil {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok {
			return true
		}
		for i, arg := range call.Args {
			if i >= sig.Params().Len() || (sig.Variadic() && i == sig.Params().Len()-1) {
				break
			}
			if !isContextType(sig.Params().At(i).Type()) {
				continue
			}
			if root := c.backgroundCall(arg); root != "" {
				c.reportf(arg.Pos(), "context dropped: %s takes a context.Context but is handed context.%s() while %s is in scope", callee.Name(), root, ctxName)
			}
		}
		return true
	})

	// Unbounded loops must consult the context. Goroutine bodies are the
	// spawn rule's business; literals with their own ctx check theirs.
	ast.Inspect(body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if c.hasOwnCtxParam(l) {
				return false
			}
		case *ast.ForStmt:
			if l.Cond != nil && !c.constTrue(l.Cond) {
				return true
			}
			if !c.loopSignaled(l.Body, true) {
				c.reportf(l.Pos(), "loop never consults %s: an unbounded loop in a context-carrying function must check Done/Err or receive from a closed channel", ctxName)
			}
		case *ast.RangeStmt:
			if c.isChanExpr(l.X) && !c.closed[c.chanObj(l.X)] && !c.loopSignaled(l.Body, true) {
				c.reportf(l.Pos(), "range over %s never consults %s: the channel is never closed in this package and the loop checks no deadline", types.ExprString(l.X), ctxName)
			}
		}
		return true
	})

	if !used {
		if op := c.blockingOp(body); op != "" {
			c.reportf(first.Pos(), "context parameter %s is never consulted, but the function blocks on %s; thread it into the blocking operation or drop the parameter", ctxName, op)
		}
	}
}

func (c *checker) hasOwnCtxParam(lit *ast.FuncLit) bool {
	if lit.Type.Params == nil {
		return false
	}
	for _, fld := range lit.Type.Params.List {
		for _, name := range fld.Names {
			if name.Name == "_" {
				continue
			}
			if obj := c.pass.TypesInfo.Defs[name]; obj != nil && isContextType(obj.Type()) {
				return true
			}
		}
	}
	return false
}

// blockingOp returns a description of the first operation in body that
// can block indefinitely, or "" when none is visible. Spawned goroutines
// block on their own time; literals with their own ctx answer for their
// own blocking.
func (c *checker) blockingOp(body *ast.BlockStmt) string {
	op := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if op != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if c.hasOwnCtxParam(x) {
				return false
			}
		case *ast.SendStmt:
			op = "a channel send"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				op = "a channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				op = "a select with no default"
			}
		case *ast.RangeStmt:
			if c.isChanExpr(x.X) {
				op = "a range over a channel"
			}
		case *ast.CallExpr:
			fn := c.calledFunc(x)
			if fn == nil {
				return true
			}
			full := fn.FullName()
			switch {
			case ExternalBlocking[full] != "":
				op = fmt.Sprintf("a call to %s, declared blocking in external.go: %s", fn.Name(), ExternalBlocking[full])
			case full == "(*sync.WaitGroup).Wait":
				op = "a sync.WaitGroup Wait"
			default:
				if sig, ok := fn.Type().(*types.Signature); ok {
					for i := 0; i < sig.Params().Len(); i++ {
						if isContextType(sig.Params().At(i).Type()) {
							op = fmt.Sprintf("a call to %s, which takes a context.Context", fn.Name())
							break
						}
					}
				}
			}
		}
		return op == ""
	})
	return op
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ---- channel-send discipline (dataflow hooks) ----

// Send implements dataflow.CommObserver: classify one send statement
// with the channel's abstract value in hand.
func (c *checker) Send(st *ast.SendStmt, ch val) {
	if c.sendChecked[st.Pos()] {
		return
	}
	c.sendChecked[st.Pos()] = true
	site := c.sends[st]
	if site == nil || site.selectSafe || site.annotated {
		return
	}
	obj := c.chanObj(st.Chan)
	if obj != nil && c.dedicated[obj] {
		return
	}
	chanStr := types.ExprString(st.Chan)
	if ch == vBuf {
		root := c.rootObj(st.Chan)
		if site.inLoop {
			if root != nil && site.loopVars[root] {
				return // a fresh channel per iteration (the serveBatch reply shape)
			}
			c.reportf(st.Pos(), "repeated send on buffered channel %s can fill the buffer and block forever; use a select with a cancellation arm or annotate //mheta:sendsafe <reason>", chanStr)
			return
		}
		if root != nil && isLocalOf(root, site.outer) {
			// A local of the owning call frame — including one captured by
			// a literal spawned from it — has statically bounded senders.
			return
		}
		c.reportf(st.Pos(), "send on shared buffered channel %s can find the buffer full and block forever; use a select with a default or cancellation arm, or annotate //mheta:sendsafe <reason>", chanStr)
		return
	}
	c.reportf(st.Pos(), "send on %s may block forever: not in a select with a default or cancellation arm, no dedicated receiver goroutine, and not provably buffered; annotate //mheta:sendsafe <reason> if the discipline lives elsewhere", chanStr)
}

// ---- directive validation ----

func (c *checker) validate() {
	for _, d := range c.directives {
		if c.consumed[d.Pos] {
			continue
		}
		switch d.Name {
		case "lifecycle":
			c.reportf(d.Pos, "//mheta:lifecycle must sit on a go statement (same line or the line above)")
		case "sendsafe":
			c.reportf(d.Pos, "//mheta:sendsafe must sit on a channel send (same line or the line above)")
		}
	}
}

// directivesAt returns the //mheta:<name> directives annotating a
// statement at pos: on the same line, or alone on the line above.
func (c *checker) directivesAt(pos token.Position, name string) []lintkit.Directive {
	var out []lintkit.Directive
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if line != pos.Line && c.lineHasCode(pos.Filename, line) {
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
		for _, f := range c.files {
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
		c.codeLines[filename] = m
	}
	return m[line]
}

// ---- dataflow semantics (the buffering lattice) ----

func (c *checker) Bottom() val { return vBottom }

func (c *checker) Join(a, b val) val {
	switch {
	case a == b:
		return a
	case a == vBottom:
		return b
	case b == vBottom:
		return a
	}
	return vUnknown
}

// Atom values undecomposed expressions from package facts: a selector
// or unbound identifier of channel type reads its make-site summary.
func (c *checker) Atom(e ast.Expr) val {
	return c.chanFact(e)
}

func (c *checker) chanFact(e ast.Expr) val {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil || !isChanType(t) {
		return vUnknown
	}
	if obj := c.chanObj(e); obj != nil {
		if buffered, ok := c.bufMake[obj]; ok {
			if buffered {
				return vBuf
			}
			return vUnbuf
		}
	}
	return vUnknown
}

func (c *checker) Unary(e *ast.UnaryExpr, x val) val                            { return vUnknown }
func (c *checker) Binary(e *ast.BinaryExpr, x, y val) val                       { return vUnknown }
func (c *checker) OpAssign(e *ast.AssignStmt, op token.Token, l, r val) val     { return vUnknown }
func (c *checker) Index(e *ast.IndexExpr, x val) val                            { return vUnknown }
func (c *checker) Result(call *ast.CallExpr, i int) val                         { return vUnknown }
func (c *checker) Bind(lhs ast.Expr, obj types.Object, rhs ast.Expr, v val) val { return v }
func (c *checker) Range(rs *ast.RangeStmt, x val) (val, val)                    { return vUnknown, vUnknown }
func (c *checker) Composite(lit *ast.CompositeLit, kv *ast.KeyValueExpr, v val) {}
func (c *checker) Enter(fn ast.Node, ft *ast.FuncType, env *dataflow.Env[val])  {}
func (c *checker) Return(fn ast.Node, ret *ast.ReturnStmt, vals []val)          {}

func (c *checker) Call(e *ast.CallExpr, eval dataflow.Eval[val]) val {
	for _, a := range e.Args {
		eval(a)
	}
	if c.isMakeChan(e) {
		if c.makeIsBuffered(e) {
			return vBuf
		}
		if len(e.Args) < 2 {
			return vUnbuf
		}
		return vUnknown // non-constant capacity: not provably buffered
	}
	return vUnknown
}

// ---- shared helpers ----

// chanObj resolves the stable object behind a channel expression: the
// identifier's variable, or the field a selector names. Index and call
// results have no stable identity and return nil.
func (c *checker) chanObj(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.ObjectOf(x)
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.ObjectOf(x.Sel)
	}
	return nil
}

// rootObj returns the object of the leftmost identifier of e (the r in
// r.reply), for the per-iteration-channel rule.
func (c *checker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return c.pass.TypesInfo.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isLocalOf reports whether obj is declared inside fn's body (not a
// parameter, receiver, or captured outer binding).
func isLocalOf(obj types.Object, fn ast.Node) bool {
	body := funcBody(fn)
	return body != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
}

func (c *checker) calledFunc(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func (c *checker) calledFullName(e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	if fn := c.calledFunc(call); fn != nil {
		return fn.FullName()
	}
	return ""
}

// isCtxDoneCall reports whether e is a ctx.Done() call on any
// context.Context value.
func (c *checker) isCtxDoneCall(e ast.Expr) bool {
	return c.calledFullName(e) == "(context.Context).Done"
}

// backgroundCall returns "Background" or "TODO" when arg is a direct
// call of the corresponding context root constructor, else "".
func (c *checker) backgroundCall(arg ast.Expr) string {
	switch c.calledFullName(arg) {
	case "context.Background":
		return "Background"
	case "context.TODO":
		return "TODO"
	}
	return ""
}

func (c *checker) constTrue(e ast.Expr) bool {
	v := c.pass.TypesInfo.Types[e].Value
	return v != nil && v.Kind() == constant.Bool && constant.BoolVal(v)
}

func (c *checker) isChanExpr(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	return t != nil && isChanType(t)
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

func fieldByName(t types.Type, name string) *types.Var {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
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
