// Package lintkit is a small, dependency-free analysis framework modelled
// on golang.org/x/tools/go/analysis. The repo's determinism and
// clone-safety contracts (DESIGN.md §5.7/§5.9) deserve compiler-grade
// enforcement, but the build environment is hermetic — no module proxy —
// so instead of importing x/tools this package reimplements the slice of
// it the mheta analyzers need on top of the standard library: go/ast,
// go/types, and a loader that shells out to `go list -export` for
// dependency export data. The API mirrors x/tools deliberately
// (Analyzer/Pass/Diagnostic, analysistest-style fixtures in
// lintkit/linttest), so migrating to the real framework if the ecosystem
// ever becomes available is a mechanical import swap.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis pass: a named checker that inspects a
// type-checked package and reports diagnostics. Unlike x/tools the Run
// result value is unused (the mheta analyzers share no facts), but the
// signature is kept identical for a future migration.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:ignore <name> <reason>` suppressions.
	Name string
	// Doc is the analyzer's help text: the first line is the summary,
	// the rest explains the contract it encodes.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) (any, error)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the import path as reported by the build system. It can
	// differ from Pkg.Path() for test variants ("p [p.test]").
	PkgPath string
	// Report delivers one diagnostic. The runner applies
	// `//lint:ignore` suppression and ordering; analyzers just report.
	Report func(Diagnostic)

	directives []Directive
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned inside the package's file set.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.TypesInfo.ObjectOf(id) }

// Directives returns every `//lint:` and `//mheta:` directive in the
// package, in file order.
func (p *Pass) Directives() []Directive { return p.directives }

// DirectiveAt reports whether a directive with the given name is written
// on line, or on the line immediately above it, in the file containing
// pos. This is the attachment rule every marker shares: annotate the
// construct itself or the line before it.
func (p *Pass) DirectiveAt(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	for _, d := range p.directives {
		if d.Kind != "lint" || d.Name != name {
			continue
		}
		dp := p.Fset.Position(d.Pos)
		if dp.Filename == position.Filename && (dp.Line == position.Line || dp.Line == position.Line-1) {
			return true
		}
	}
	return false
}

// MhetaAt returns the //mheta:<name> directives annotating the construct
// at pos: written on its line, or alone on the line above. gofmt indents
// such a line comment to the construct's own column, while a trailing
// comment on the previous line sits further right and belongs to that
// line's construct.
func (p *Pass) MhetaAt(pos token.Pos, name string) []Directive {
	at := p.Fset.Position(pos)
	var out []Directive
	for _, d := range p.directives {
		if d.Kind != "mheta" || d.Name != name {
			continue
		}
		dp := p.Fset.Position(d.Pos)
		if dp.Filename == at.Filename && (dp.Line == at.Line || dp.Line == at.Line-1 && dp.Column == at.Column) {
			out = append(out, d)
		}
	}
	return out
}

// IsDeterministic reports whether this package is subject to the
// bit-reproducibility contract: either its import path is in
// DeterministicPkgs, or one of its files carries a
// `//lint:deterministic` directive (the opt-in for new packages and for
// fixture tests).
func (p *Pass) IsDeterministic() bool {
	if isDeterministicPath(p.PkgPath) {
		return true
	}
	for _, d := range p.directives {
		if d.Kind == "lint" && d.Name == "deterministic" {
			return true
		}
	}
	return false
}
