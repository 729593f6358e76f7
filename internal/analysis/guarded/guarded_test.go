package guarded_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"mheta/internal/analysis/guarded"
	"mheta/internal/analysis/lintkit"
	"mheta/internal/analysis/lintkit/linttest"
)

func TestFixtures(t *testing.T) {
	linttest.Run(t, "testdata", guarded.Analyzer, "guarded_bad", "guarded_good")
}

// checkSource runs the guarded analyzer over a single in-memory file,
// importing std packages via export data.
func checkSource(t *testing.T, src string, imports ...string) []lintkit.Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	exports, err := lintkit.StdExports(".", imports)
	if err != nil {
		t.Fatalf("std exports: %v", err)
	}
	imp := lintkit.ExportImporter(fset, func(path string) (string, bool) {
		p, ok := exports[path]
		return p, ok
	})
	pkg, info, err := lintkit.Check("p", fset, []*ast.File{f}, imp)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	findings, err := lintkit.Run([]*lintkit.Analyzer{guarded.Analyzer}, []*lintkit.Package{{
		PkgPath: "p", Fset: fset, Files: []*ast.File{f}, Types: pkg, TypesInfo: info,
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return findings
}

// A reason-less //lint:ignore must not suppress anything — it becomes a
// finding itself and the guarded diagnostic still fires.
func TestReasonlessSuppressionStaysFinding(t *testing.T) {
	findings := checkSource(t, `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int //mheta:guardedby mu
}

func (s *S) Get() int {
	//lint:ignore guarded
	return s.n
}
`, "sync")
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want reason-less directive + unsuppressed access", findings)
	}
	var sawReason, sawAccess bool
	for _, f := range findings {
		if strings.Contains(f.Message, "needs a reason") {
			sawReason = true
		}
		if strings.Contains(f.Message, "requires holding s.mu") {
			sawAccess = true
		}
	}
	if !sawReason || !sawAccess {
		t.Errorf("findings = %v, want a needs-a-reason finding and the guarded finding", findings)
	}
}

// Directive validation: strays, bad lock names, a bad contract form,
// and a retired annotation name.
func TestDirectiveValidation(t *testing.T) {
	findings := checkSource(t, `package p

import "sync"

//mheta:guardedby mu
var loose int

type S struct {
	mu sync.Mutex
	a  int //mheta:guardedby nosuch
	b  int //mheta:atomic
}

//mheta:locks holds mu
func (s *S) f() {}

//mheta:locks requires nosuch
func (s *S) g() {}
`, "sync")
	wants := []string{
		"must sit on a struct field",
		"names no mutex field \"nosuch\"",
		"unknown //mheta:atomic directive (this suite defines //mheta:guardedby, //mheta:lifecycle, //mheta:locks, //mheta:units)",
		"//mheta:locks must read `requires <lock>...` (got \"holds mu\")",
		"names unknown lock \"nosuch\"",
	}
	for _, w := range wants {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding containing %q in %v", w, findings)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("findings = %v, want exactly %d", findings, len(wants))
	}
}
