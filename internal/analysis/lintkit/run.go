package lintkit

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Finding is one resolved diagnostic: positioned, attributed, and
// marked if a reasoned //lint:ignore directive suppressed it.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Run executes every analyzer over every package and returns the
// surviving findings sorted by position then analyzer name, so output is
// stable regardless of analyzer registration or map iteration order.
//
// Suppression: a diagnostic is dropped when a `//lint:ignore <analyzer>
// <reason>` directive sits on the diagnostic's line or the line above.
// An ignore directive missing the reason is not honoured — it becomes a
// finding itself, so silent suppressions cannot accumulate.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	all, err := RunAll(analyzers, pkgs)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, f := range all {
		if !f.Suppressed {
			findings = append(findings, f)
		}
	}
	return findings, nil
}

// RunAll is Run without the suppression filter: suppressed diagnostics
// are returned too, marked, so tooling (mheta-lint -json) can audit
// what the ignore directives are hiding.
func RunAll(analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	return RunAllN(analyzers, pkgs, 1)
}

// RunAllN is RunAll with packages analyzed by a bounded pool of workers.
// Packages are independent units (each analyzer run sees exactly one
// package and the std export cache is already synchronized), so the only
// shared state is the result slot per package. The merged output is
// byte-identical for every worker count: findings are gathered per
// package into indexed slots, concatenated in input order, and sorted by
// the same total order the serial path uses. On analyzer error the
// lowest-indexed package's error wins, again independent of scheduling.
func RunAllN(analyzers []*Analyzer, pkgs []*Package, workers int) ([]Finding, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	perPkg := make([][]Finding, len(pkgs))
	errs := make([]error, len(pkgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//mheta:lifecycle waitgroup
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pkgs); i = int(next.Add(1)) - 1 {
				perPkg[i], errs[i] = runPackage(analyzers, pkgs[i])
			}
		}()
	}
	wg.Wait()
	var findings []Finding
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		findings = append(findings, perPkg[i]...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}

func runPackage(analyzers []*Analyzer, pkg *Package) ([]Finding, error) {
	var directives []Directive
	for _, f := range pkg.Files {
		directives = append(directives, ParseDirectives(f)...)
	}
	var findings []Finding
	for _, d := range directives {
		if d.Kind == "lint" && (d.Name == "ignore" || d.Name == "sorted" || d.Name == "shared") && missingReason(d) {
			findings = append(findings, Finding{
				Analyzer: "lintkit",
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  fmt.Sprintf("//lint:%s directive needs a reason explaining why it is safe", d.Name),
			})
		}
		if d.Kind == "mheta" && !mhetaDirectives[d.Name] {
			// A typo'd annotation would otherwise silently protect
			// nothing; the name check lives here so every analyzer's
			// directives are validated even when that analyzer is not
			// in the run.
			findings = append(findings, Finding{
				Analyzer: "lintkit",
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  fmt.Sprintf("unknown //mheta:%s directive (this suite defines %s)", d.Name, knownMheta),
			})
		}
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			PkgPath:    pkg.PkgPath,
			directives: directives,
		}
		pass.Report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			findings = append(findings, Finding{
				Analyzer:   a.Name,
				Pos:        pos,
				Message:    d.Message,
				Suppressed: suppressed(pkg.Fset, directives, a.Name, pos),
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lintkit: analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	return findings, nil
}

// mhetaDirectives is the closed set of annotation names the suite
// defines: units (dimension facts), guardedby (a field's mutex), locks
// (a method's required locks), lifecycle (a goroutine's termination
// mechanism).
var mhetaDirectives = map[string]bool{
	"units":     true,
	"guardedby": true,
	"locks":     true,
	"lifecycle": true,
}

// knownMheta lists mhetaDirectives for the unknown-directive message.
var knownMheta = func() string {
	names := make([]string, 0, len(mhetaDirectives))
	for n := range mhetaDirectives {
		names = append(names, "//mheta:"+n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}()

// missingReason reports whether an ignore-style directive lacks its
// mandatory justification. For ignore the first word is the analyzer
// name, so a reason needs at least a second word.
func missingReason(d Directive) bool {
	if d.Name != "ignore" {
		return d.Args == ""
	}
	_, reason, _ := strings.Cut(d.Args, " ")
	return strings.TrimSpace(reason) == ""
}

func suppressed(fset *token.FileSet, directives []Directive, analyzer string, pos token.Position) bool {
	for _, d := range directives {
		if d.Kind != "lint" || d.Name != "ignore" || missingReason(d) {
			continue
		}
		target, _, _ := strings.Cut(d.Args, " ")
		if target != analyzer {
			continue
		}
		dp := fset.Position(d.Pos)
		if dp.Filename == pos.Filename && (dp.Line == pos.Line || dp.Line == pos.Line-1) {
			return true
		}
	}
	return false
}
