package lintkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// checkSrc parses and type-checks one import-free source file into a
// ready-to-analyze Package.
func checkSrc(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	files := []*ast.File{f}
	pkg, info, err := Check(pkgPath, fset, files, nil)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: pkg, TypesInfo: info}
}

// funcFlagger reports a diagnostic at every function declaration, which
// makes suppression behaviour easy to pin to specific lines.
func funcFlagger(name string) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  "flag every function declaration (test helper)",
		Run: func(pass *Pass) (any, error) {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						pass.Reportf(fd.Pos(), "function %s declared", fd.Name.Name)
					}
				}
			}
			return nil, nil
		},
	}
}

func TestParseDirectives(t *testing.T) {
	pkg := checkSrc(t, "p", `// Package p is a directive fixture.
//
//lint:deterministic
package p

//lint:ignore toy because the test says so
var A int

var B int //lint:sorted keys are pre-sorted

// plain comment, no directive
var C int
`)
	ds := ParseDirectives(pkg.Files[0])
	if len(ds) != 3 {
		t.Fatalf("got %d directives, want 3: %+v", len(ds), ds)
	}
	wantNames := []string{"deterministic", "ignore", "sorted"}
	wantArgs := []string{"", "toy because the test says so", "keys are pre-sorted"}
	for i, d := range ds {
		if d.Name != wantNames[i] || d.Args != wantArgs[i] {
			t.Errorf("directive %d = %q %q, want %q %q", i, d.Name, d.Args, wantNames[i], wantArgs[i])
		}
	}
}

func TestParseDirectivesEmbedded(t *testing.T) {
	pkg := checkSrc(t, "p", `package p

type S struct {
	// Two directives sharing one comment: the first's args stop where
	// the second begins.
	A []float64 //lint:shared immutable after build //mheta:units seconds
	// Grouped field list with a trailing directive.
	B, C int64 //mheta:units bytes
}

// Grouped var list with the directive on the line above.
//
//mheta:units s/byte
var (
	D, E float64
)

var F float64 //mheta:units s/elem trailing prose is part of the args
`)
	ds := ParseDirectives(pkg.Files[0])
	type want struct {
		kind, name, args string
		line             int
	}
	wants := []want{
		{"lint", "shared", "immutable after build", 6},
		{"mheta", "units", "seconds", 6},
		{"mheta", "units", "bytes", 8},
		{"mheta", "units", "s/byte", 13},
		{"mheta", "units", "s/elem trailing prose is part of the args", 18},
	}
	if len(ds) != len(wants) {
		t.Fatalf("got %d directives, want %d: %+v", len(ds), len(wants), ds)
	}
	for i, w := range wants {
		d := ds[i]
		pos := pkg.Fset.Position(d.Pos)
		if d.Kind != w.kind || d.Name != w.name || d.Args != w.args || pos.Line != w.line {
			t.Errorf("directive %d = %s:%s %q at line %d, want %s:%s %q at line %d",
				i, d.Kind, d.Name, d.Args, pos.Line, w.kind, w.name, w.args, w.line)
		}
	}
}

func TestEmbeddedSharedDirectiveStillSuppresses(t *testing.T) {
	// A //lint:shared reason followed by //mheta:units in the same
	// comment must keep its reason (not swallow the units directive into
	// the args in a way that breaks reason checking), and the mheta
	// directive must not be mistaken for a reason-less lint one.
	pkg := checkSrc(t, "p", `package p

type T struct {
	X []int //lint:shared never mutated //mheta:units bytes
}
`)
	findings, err := Run([]*Analyzer{funcFlagger("toy")}, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("unexpected findings: %v", findings)
	}
	for _, d := range ParseDirectives(pkg.Files[0]) {
		if d.Kind == "lint" && d.Name == "shared" && missingReason(d) {
			t.Errorf("shared directive lost its reason: %+v", d)
		}
	}
}

func TestIsDeterministicPath(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"mheta/internal/core", true},
		{"mheta/internal/core [mheta/internal/core.test]", true},
		{"mheta/internal/search", true},
		{"mheta/internal/obs", true},
		{"mheta/internal/trace", false},
		{"mheta/internal/report", false},
		{"mheta/cmd/mheta-lint", false},
		{"fmt", false},
	}
	for _, c := range cases {
		if got := isDeterministicPath(c.path); got != c.want {
			t.Errorf("isDeterministicPath(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestIsDeterministicDirective(t *testing.T) {
	pkg := checkSrc(t, "anypkg", "//lint:deterministic\npackage anypkg\n")
	pass := &Pass{PkgPath: pkg.PkgPath, Fset: pkg.Fset, Files: pkg.Files,
		directives: ParseDirectives(pkg.Files[0])}
	if !pass.IsDeterministic() {
		t.Error("file-level //lint:deterministic not honoured")
	}
	plain := checkSrc(t, "anypkg", "package anypkg\n")
	pass = &Pass{PkgPath: plain.PkgPath, Fset: plain.Fset, Files: plain.Files}
	if pass.IsDeterministic() {
		t.Error("plain package reported deterministic")
	}
}

func TestMissingReason(t *testing.T) {
	cases := []struct {
		d    Directive
		want bool
	}{
		{Directive{Name: "ignore", Args: "toy documented reason"}, false},
		{Directive{Name: "ignore", Args: "toy"}, true},
		{Directive{Name: "ignore", Args: ""}, true},
		{Directive{Name: "sorted", Args: "keys sorted above"}, false},
		{Directive{Name: "sorted", Args: ""}, true},
		{Directive{Name: "shared", Args: ""}, true},
	}
	for _, c := range cases {
		if got := missingReason(c.d); got != c.want {
			t.Errorf("missingReason(%+v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestRunSuppression(t *testing.T) {
	pkg := checkSrc(t, "toypkg", `package toypkg

func A() {}

//lint:ignore toy suppressed by the line above
func B() {}

func C() {} //lint:ignore toy suppressed on the same line

//lint:ignore toy
func D() {}

//lint:ignore other this names a different analyzer
func E() {}
`)
	findings, err := Run([]*Analyzer{funcFlagger("toy")}, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+":"+f.Message)
	}
	want := []string{
		"toy:function A declared",
		"lintkit://lint:ignore directive needs a reason explaining why it is safe",
		"toy:function D declared", // reason-less ignore does not suppress
		"toy:function E declared", // wrong analyzer name does not suppress
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Findings come back sorted by position: A(line 3) < bare ignore
	// directive(9) < D(10) < E(13).
	for i := 1; i < len(findings); i++ {
		if findings[i-1].Pos.Line > findings[i].Pos.Line {
			t.Errorf("findings out of order: line %d before line %d",
				findings[i-1].Pos.Line, findings[i].Pos.Line)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "toy", Pos: token.Position{Filename: "x/y.go", Line: 7, Column: 3}, Message: "boom"}
	if got, want := f.String(), "x/y.go:7:3: boom (toy)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDirectiveAt(t *testing.T) {
	pkg := checkSrc(t, "p", `package p

//lint:sorted keys collected and sorted above
var A int

var B int
`)
	pass := &Pass{PkgPath: pkg.PkgPath, Fset: pkg.Fset, Files: pkg.Files,
		directives: ParseDirectives(pkg.Files[0])}
	findVar := func(name string) token.Pos {
		t.Helper()
		for _, d := range pkg.Files[0].Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok && vs.Names[0].Name == name {
					return vs.Pos()
				}
			}
		}
		t.Fatalf("var %s not found", name)
		return token.NoPos
	}
	if !pass.DirectiveAt(findVar("A"), "sorted") {
		t.Error("directive on the line above A not found")
	}
	if pass.DirectiveAt(findVar("B"), "sorted") {
		t.Error("directive incorrectly attached to B")
	}
	if pass.DirectiveAt(findVar("A"), "shared") {
		t.Error("wrong directive name matched")
	}
}

// MhetaAt attaches a directive on the construct's own line, or alone on
// the line above; a trailing directive on the line above belongs to that
// line's construct.
func TestMhetaAt(t *testing.T) {
	pkg := checkSrc(t, "p", `package p

type S struct {
	mu int
	a  int //mheta:guardedby mu
	b  int
	//mheta:guardedby mu
	c int
}
`)
	pass := &Pass{PkgPath: pkg.PkgPath, Fset: pkg.Fset, Files: pkg.Files,
		directives: ParseDirectives(pkg.Files[0])}
	fields := map[string]token.Pos{}
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		if f, ok := n.(*ast.Field); ok && len(f.Names) == 1 {
			fields[f.Names[0].Name] = f.Names[0].Pos()
		}
		return true
	})
	for name, want := range map[string]int{"mu": 0, "a": 1, "b": 0, "c": 1} {
		if got := len(pass.MhetaAt(fields[name], "guardedby")); got != want {
			t.Errorf("field %s: %d guardedby directives, want %d", name, got, want)
		}
	}
	if got := pass.MhetaAt(fields["a"], "locks"); len(got) != 0 {
		t.Errorf("wrong directive name matched: %v", got)
	}
}

func TestAnalyzerErrorPropagates(t *testing.T) {
	pkg := checkSrc(t, "p", "package p\n")
	boom := &Analyzer{Name: "boom", Doc: "always fails", Run: func(*Pass) (any, error) {
		return nil, errFake
	}}
	_, err := Run([]*Analyzer{boom}, []*Package{pkg})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want analyzer name in error", err)
	}
}

var errFake = &analyzerErr{}

type analyzerErr struct{}

func (*analyzerErr) Error() string { return "fake failure" }
