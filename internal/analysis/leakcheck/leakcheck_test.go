package leakcheck_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"mheta/internal/analysis/leakcheck"
	"mheta/internal/analysis/lintkit"
	"mheta/internal/analysis/lintkit/linttest"
)

func TestFixtures(t *testing.T) {
	linttest.Run(t, "testdata", leakcheck.Analyzer, "leakcheck_bad", "leakcheck_good")
}

// checkSource runs the leakcheck analyzer over a single in-memory file,
// importing std packages via export data.
func checkSource(t *testing.T, filename, src string, imports ...string) []lintkit.Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
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
	findings, err := lintkit.Run([]*lintkit.Analyzer{leakcheck.Analyzer}, []*lintkit.Package{{
		PkgPath: "p", Fset: fset, Files: []*ast.File{f}, Types: pkg, TypesInfo: info,
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return findings
}

// Test files are out of scope: goroutines spawned under the test runner
// die with the process, so the same leak shape in a _test.go file must
// not fire.
func TestTestFilesIgnored(t *testing.T) {
	const src = `package p

func Spin() {
	go func() {
		for {
		}
	}()
}
`
	if got := checkSource(t, "p_test.go", src); len(got) != 0 {
		t.Errorf("findings in _test.go = %v, want none", got)
	}
	if got := checkSource(t, "p.go", src); len(got) != 1 {
		t.Errorf("findings in p.go = %v, want the unterminated-goroutine finding", got)
	}
}

// The callgraph hop: the spawned function is clean but calls a helper
// whose loop never stops — the finding must land on the go statement.
func TestSpawnReachableLoop(t *testing.T) {
	findings := checkSource(t, "p.go", `package p

func helper() {
	for {
	}
}

func entry() {
	helper()
}

func Start() {
	go entry()
}
`)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want one finding for the reachable loop", findings)
	}
	if !strings.Contains(findings[0].Message, "goroutine may never terminate") {
		t.Errorf("finding = %v, want an unterminated-goroutine finding", findings[0])
	}
	if findings[0].Pos.Line != 13 {
		t.Errorf("finding at line %d, want the go statement at line 13", findings[0].Pos.Line)
	}
}

// A lifecycle annotation is verified, not trusted: naming waitgroup on a
// spawn whose goroutine does call Done, in a function that does call
// Add, stays silent — and losing the Add makes it fire.
func TestWaitGroupPairing(t *testing.T) {
	const good = `package p

import "sync"

type s struct{ wg sync.WaitGroup }

func (x *s) start() {
	x.wg.Add(1)
	go func() { //mheta:lifecycle waitgroup
		defer x.wg.Done()
		for {
		}
	}()
}
`
	if got := checkSource(t, "p.go", good, "sync"); len(got) != 0 {
		t.Errorf("findings for paired Add/Done = %v, want none", got)
	}
	noAdd := strings.Replace(good, "x.wg.Add(1)\n", "", 1)
	got := checkSource(t, "p.go", noAdd, "sync")
	if len(got) != 1 || !strings.Contains(got[0].Message, "no sync.WaitGroup Add call precedes") {
		t.Errorf("findings without Add = %v, want the missing-Add finding", got)
	}
}
