// mheta-lint machine-checks the repo's determinism, clone-safety,
// dimensional and concurrency contracts (DESIGN.md §5.9, §5.11, §5.14,
// §5.16) with a suite of custom static analyzers:
//
//	maporder        order-sensitive accumulation in range-over-map
//	clonesafe       Clone methods must account for every mutable field
//	nondeterminism  wall clocks / global randomness in deterministic code
//	floatreduce     completion-order merging of parallel float results
//	units           dimensional consistency of the model's equations
//	guarded         //mheta:guardedby fields and //mheta:locks requires
//	                contracts via lockset dataflow
//	leakcheck       every goroutine has a termination path
//
// It runs standalone over package patterns:
//
//	go run ./cmd/mheta-lint ./...
//
// or as a vet tool, which also covers test-variant builds:
//
//	go vet -vettool=$(which mheta-lint) ./...
//
// With -json, findings (including suppressed ones, marked) are emitted
// as a JSON array on stdout instead of the text lines.
//
// Packages are analyzed by a bounded worker pool (-parallel, default
// GOMAXPROCS); output order is byte-identical for every worker count.
// The total wall-time is reported on stderr.
//
// Exit status: 0 clean, 2 findings, 1 operational error — in both text
// and JSON modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mheta/internal/analysis"
	"mheta/internal/analysis/lintkit"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The go command probes a vet tool before handing it package units:
	// -V=full asks for a version string to mix into build IDs, -flags for
	// the tool's flag definitions as JSON (none here — every analyzer is
	// always on). Answer both handshakes first.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Printf("mheta-lint version devel comments-go-here buildID=devel\n")
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}

	fs := flag.NewFlagSet("mheta-lint", flag.ContinueOnError)
	which := fs.Bool("which", false, "list registered analyzers (stable order) and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (includes suppressed findings, marked)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "package-analysis workers (output is identical for any value)")
	dir := fs.String("C", ".", "directory to load packages from (findings print relative to it)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mheta-lint [-which] [-json] [-parallel n] [-C dir] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Checks mheta's determinism and clone-safety contracts. Analyzers:\n\n")
		for _, a := range analysis.All() {
			summary, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(fs.Output(), "  %-15s %s\n", a.Name, summary)
		}
		fmt.Fprintf(fs.Output(), "\nAlso runs as a unit checker: go vet -vettool=$(which mheta-lint) ./...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}
	rest := fs.Args()

	if *which {
		for _, name := range analysis.Names() {
			fmt.Println(name)
		}
		return 0
	}

	// In -vettool mode the go command invokes the tool once per package
	// with a single *.cfg JSON argument.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return lintkit.RunVet(os.Stderr, rest[0], analysis.All())
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	pkgs, err := lintkit.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	findings, err := lintkit.RunAllN(analysis.All(), pkgs, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "mheta-lint: %d package(s), %d analyzer(s), %d worker(s) in %s\n",
		len(pkgs), len(analysis.All()), *parallel, time.Since(start).Round(time.Millisecond))
	base, _ := filepath.Abs(*dir)
	relName := func(name string) string {
		if base != "" {
			if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
				return rel
			}
		}
		return name
	}

	if *jsonOut {
		return emitJSON(findings, relName)
	}

	live := 0
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		live++
		fmt.Printf("%s:%d:%d: %s (%s)\n", relName(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "mheta-lint: %d finding(s)\n", live)
		return 2
	}
	return 0
}

// jsonFinding is the machine-readable finding record -json emits. Unlike
// the text output it keeps suppressed findings, marked, so CI artifacts
// record what the //lint:ignore directives in the tree are hiding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func emitJSON(findings []lintkit.Finding, relName func(string) string) int {
	recs := make([]jsonFinding, 0, len(findings))
	live := 0
	for _, f := range findings {
		if !f.Suppressed {
			live++
		}
		recs = append(recs, jsonFinding{
			File:       relName(f.Pos.Filename),
			Line:       f.Pos.Line,
			Col:        f.Pos.Column,
			Analyzer:   f.Analyzer,
			Message:    f.Message,
			Suppressed: f.Suppressed,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "mheta-lint: %d finding(s)\n", live)
		return 2
	}
	return 0
}
