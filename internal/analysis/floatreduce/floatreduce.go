// Package floatreduce defines an analyzer that flags parallel float
// reductions merged in completion order.
//
// The determinism contract (DESIGN.md §5.7) requires bit-identical
// results for any worker count. A loop that receives worker results
// from a channel and folds them into a float accumulator — or appends
// them to a result slice — merges in whatever order goroutines happen
// to finish, so the last ULPs (or the slice order) change run to run.
// The safe shape is the one experiments.Runner.fanOut uses: give every
// work item an index, have workers write out[i], and reduce the dense
// slice serially in index order after the barrier.
package floatreduce

import (
	"go/ast"
	"go/token"
	"go/types"

	"mheta/internal/analysis/lintkit"
)

// Analyzer flags completion-order merging of worker results.
var Analyzer = &lintkit.Analyzer{
	Name: "floatreduce",
	Doc: "flag float reductions that merge channel-delivered worker results in completion order\n\n" +
		"Accumulating floats (or appending results) while receiving from a channel makes the\n" +
		"merge order depend on goroutine scheduling; write results to an indexed slot and\n" +
		"reduce in index order instead (see experiments.Runner.fanOut).",
	Run: run,
}

func run(pass *lintkit.Pass) (any, error) {
	if !pass.IsDeterministic() {
		return nil, nil
	}
	lintkit.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch loop := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypeOf(loop.X)
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				checkLoop(pass, loop, loop.Body)
			}
		case *ast.ForStmt:
			if receivesFromChan(pass, loop.Body) {
				checkLoop(pass, loop, loop.Body)
			}
		}
		return true
	})
	return nil, nil
}

// receivesFromChan reports whether the loop body contains a channel
// receive (plain, assignment, or select case), ignoring nested function
// literals and nested loops (which are their own reduction scopes).
func receivesFromChan(pass *lintkit.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch u := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.UnaryExpr:
			if u.Op == token.ARROW {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkLoop flags order-sensitive accumulation inside a
// receive-driven loop.
func checkLoop(pass *lintkit.Pass, loop ast.Node, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := st.Lhs[0]
			obj := pass.RootObject(lhs)
			if !lintkit.DeclaredOutside(obj, loop.Pos(), loop.End()) {
				return true
			}
			if t := pass.TypeOf(lhs); t != nil && lintkit.IsFloat(t) {
				pass.Reportf(st.Pos(), "float accumulation into %s merges channel-delivered results in completion order; have workers fill an indexed slot and reduce in index order (experiments.Runner.fanOut pattern)", obj.Name())
			}
		case token.ASSIGN, token.DEFINE:
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(st.Lhs) {
					continue
				}
				obj := pass.RootObject(st.Lhs[i])
				if !lintkit.DeclaredOutside(obj, loop.Pos(), loop.End()) {
					continue
				}
				if pass.IsAppendTo(call, obj) {
					pass.Reportf(st.Pos(), "append to %s collects channel-delivered results in completion order; have workers fill an indexed slot instead (experiments.Runner.fanOut pattern)", obj.Name())
				}
			}
		}
		return true
	})
}
