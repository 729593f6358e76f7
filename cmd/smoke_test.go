// Smoke tests for the command-line binaries: each must build, print
// usage on -h, and complete one tiny end-to-end invocation at -scale
// test. These guard the flag surface and the wiring from flags to the
// library — the numerical behaviour behind them is covered by the unit,
// validation, and golden suites.
package cmd_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the binaries built once in TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mheta-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	// Building from the package directory, ./... covers exactly the
	// cmd/ mains.
	out, err := exec.Command("go", "build", "-o", dir, "./...").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "go build ./cmd/...: %v\n%s", err, out)
		os.Exit(1)
	}
	binDir = dir
	os.Exit(m.Run())
}

// run executes one of the built binaries and returns its combined output,
// failing the test on a non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, bin), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestHelp asserts every binary exits cleanly on -h (the flag package
// treats an explicit help request as success) and documents its flags.
func TestHelp(t *testing.T) {
	for bin, flag := range map[string]string{
		"mheta-predict":     "-params",
		"mheta-emulate":     "-app",
		"mheta-search":      "-alg",
		"mheta-experiments": "-which",
		"mheta-lint":        "maporder",
		"mheta-bench":       "-baseline",
		"mheta-serve":       "-addr",
	} {
		out, err := exec.Command(filepath.Join(binDir, bin), "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v", bin, err)
		}
		if !strings.Contains(string(out), flag) {
			t.Errorf("%s -h output does not mention %s:\n%s", bin, flag, out)
		}
	}
}

// TestPredictCollect exercises the paper's two-step pipeline: -collect
// writes a parameter file, a second invocation loads it and predicts.
func TestPredictCollect(t *testing.T) {
	params := filepath.Join(t.TempDir(), "params.json")
	out := run(t, "mheta-predict", "-params", params, "-collect", "jacobi:DC", "-scale", "test")
	if !strings.Contains(out, "collected parameters") {
		t.Fatalf("collect output:\n%s", out)
	}
	out = run(t, "mheta-predict", "-params", params, "-detailed")
	for _, want := range []string{"program:", "jacobi", "per iteration:", "node times"} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output missing %q:\n%s", want, out)
		}
	}
}

// TestEmulate runs one predicted-vs-actual row plus a 1-step spectrum
// sweep.
func TestEmulate(t *testing.T) {
	out := run(t, "mheta-emulate", "-app", "jacobi", "-config", "DC", "-scale", "test")
	if !strings.Contains(out, "actual(s)") || !strings.Contains(out, "given") {
		t.Fatalf("emulate output:\n%s", out)
	}
	out = run(t, "mheta-emulate", "-app", "lanczos", "-config", "HY1", "-scale", "test", "-spectrum", "1")
	if !strings.Contains(out, "I-C/Bal") {
		t.Fatalf("spectrum output missing anchor label:\n%s", out)
	}
}

// TestSearch runs the cheapest search on the tiny scale and verifies the
// found distribution on the emulator.
func TestSearch(t *testing.T) {
	out := run(t, "mheta-search", "-app", "jacobi", "-config", "HY1", "-scale", "test", "-alg", "gbs", "-verify")
	for _, want := range []string{"blk", "gbs", "verify"} {
		if !strings.Contains(out, want) {
			t.Errorf("search output missing %q:\n%s", want, out)
		}
	}
}

// writeBadModule lays out a throwaway module containing three deliberate
// violations — a //lint:deterministic file calling time.Now, a
// //mheta:guardedby field read without its lock, and a leaked ticker
// goroutine with no stop signal — the known-bad input the lint smoke
// tests run against.
func writeBadModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module badmod\n\ngo 1.22\n",
		"bad.go": `//lint:deterministic
package badmod

import "time"

// Stamp reads the wall clock inside the deterministic contract.
func Stamp() int64 { return time.Now().UnixNano() }
`,
		"racy.go": `package badmod

import "sync"

// Box plants a lock-discipline violation for the guarded analyzer.
type Box struct {
	mu sync.Mutex
	n  int //mheta:guardedby mu
}

// Peek reads n without holding mu.
func (b *Box) Peek() int { return b.n }
`,
		"leaky.go": `package badmod

import "time"

// Tick plants a leaked goroutine for the leakcheck analyzer: the ticker
// loop has no stop signal, so the goroutine never terminates.
func Tick() {
	go func() {
		t := time.NewTicker(time.Second)
		for {
			<-t.C
		}
	}()
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLintClean asserts the linter passes over this repository — the
// contracts it enforces must hold on the tree that ships it.
func TestLintClean(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "mheta-lint"), "./...")
	cmd.Dir = ".." // repo root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("mheta-lint ./... on the repo: %v\n%s", err, out)
	}
}

// TestLintKnownBad asserts the linter exits non-zero (specifically 2,
// vet's findings code) on a module with a planted violation, in both
// standalone and `go vet -vettool` modes.
func TestLintKnownBad(t *testing.T) {
	bad := writeBadModule(t)
	lint := filepath.Join(binDir, "mheta-lint")

	cmd := exec.Command(lint, "./...")
	cmd.Dir = bad
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("standalone on bad module: err=%v (want exit 2)\n%s", err, out)
	}
	if !strings.Contains(string(out), "nondeterminism") || !strings.Contains(string(out), "time.Now") {
		t.Errorf("finding not reported:\n%s", out)
	}
	if !strings.Contains(string(out), "guarded") || !strings.Contains(string(out), "requires holding b.mu") {
		t.Errorf("guardedby finding not reported:\n%s", out)
	}
	if !strings.Contains(string(out), "leakcheck") || !strings.Contains(string(out), "goroutine may never terminate") {
		t.Errorf("leaked-ticker finding not reported:\n%s", out)
	}

	cmd = exec.Command("go", "vet", "-vettool="+lint, "./...")
	cmd.Dir = bad
	out, err = cmd.CombinedOutput()
	if !errors.As(err, &exit) {
		t.Fatalf("go vet -vettool on bad module succeeded; want failure\n%s", out)
	}
	if !strings.Contains(string(out), "time.Now") {
		t.Errorf("vettool finding not reported:\n%s", out)
	}
	if !strings.Contains(string(out), "requires holding b.mu") {
		t.Errorf("vettool guardedby finding not reported:\n%s", out)
	}
	if !strings.Contains(string(out), "goroutine may never terminate") {
		t.Errorf("vettool leaked-ticker finding not reported:\n%s", out)
	}
}

// TestLintJSON pins the machine-readable output: -json on the bad module
// must emit a JSON array whose records carry file, position, analyzer,
// message and suppression status, and still exit 2.
func TestLintJSON(t *testing.T) {
	bad := writeBadModule(t)
	cmd := exec.Command(filepath.Join(binDir, "mheta-lint"), "-json", "./...")
	cmd.Dir = bad
	out, err := cmd.Output() // stdout only: the JSON must stand alone
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-json on bad module: err=%v (want exit 2)\n%s", err, out)
	}
	var findings []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Col        int    `json:"col"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out)
	}
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Message == "" {
			t.Errorf("incomplete finding record: %+v", f)
		}
		if f.Suppressed {
			t.Errorf("no suppressions planted, yet %+v is marked suppressed", f)
		}
		byAnalyzer[f.Analyzer]++
	}
	for _, want := range []string{"nondeterminism", "guarded", "leakcheck"} {
		if byAnalyzer[want] == 0 {
			t.Errorf("-json findings missing analyzer %s: %v", want, byAnalyzer)
		}
	}
}

// runExpectUsage executes a binary expecting a usage error: exit code 2
// and a message mentioning every want string.
func runExpectUsage(t *testing.T, bin string, wants []string, args ...string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, bin), args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("%s %s: err=%v, want exit 2\n%s", bin, strings.Join(args, " "), err, out)
	}
	for _, want := range wants {
		if !strings.Contains(string(out), want) {
			t.Errorf("%s %s: output missing %q:\n%s", bin, strings.Join(args, " "), want, out)
		}
	}
}

// TestFlagRejection pins the usage-error exits: bad -scale and
// non-positive -parallel used to fall back silently (parallel) or exit 1
// mid-run (scale); both are flag mistakes and must exit 2 before any
// work happens.
func TestFlagRejection(t *testing.T) {
	for _, bin := range []string{"mheta-emulate", "mheta-search", "mheta-predict", "mheta-experiments"} {
		runExpectUsage(t, bin, []string{"scale"}, "-scale", "enormous")
	}
	runExpectUsage(t, "mheta-experiments", []string{"-parallel"}, "-scale", "test", "-parallel", "0")
	runExpectUsage(t, "mheta-experiments", []string{"-parallel"}, "-scale", "test", "-parallel", "-4")
	runExpectUsage(t, "mheta-predict", []string{"-params"})
	runExpectUsage(t, "mheta-experiments", []string{"unknown experiment"}, "-scale", "test", "-which", "fig")
	// -trace-out preconditions on mheta-search.
	runExpectUsage(t, "mheta-search", []string{"-verify"},
		"-scale", "test", "-alg", "gbs", "-trace-out", "t.json")
	runExpectUsage(t, "mheta-search", []string{"single -alg"},
		"-scale", "test", "-alg", "all", "-verify", "-trace-out", "t.json")
	// -trace-out on mheta-emulate needs the single-run path.
	runExpectUsage(t, "mheta-emulate", []string{"-spectrum"},
		"-scale", "test", "-spectrum", "2", "-trace-out", "t.json")
}

// TestEmulateObservability runs the emulator with every observability
// flag and checks the artifacts: Chrome trace JSON, metrics JSON, and
// pprof profiles — while stdout keeps the plain report format.
func TestEmulateObservability(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	metricsFile := filepath.Join(dir, "metrics.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out := run(t, "mheta-emulate", "-app", "jacobi", "-config", "IO", "-scale", "test",
		"-trace-out", traceFile, "-metrics", metricsFile, "-cpuprofile", cpu, "-memprofile", mem)
	if !strings.Contains(out, "actual(s)") {
		t.Fatalf("report missing:\n%s", out)
	}
	var events []map[string]any
	mustJSON(t, traceFile, &events)
	if len(events) == 0 {
		t.Fatal("empty Chrome trace")
	}
	var metrics map[string]any
	mustJSON(t, metricsFile, &metrics)
	if _, ok := metrics["counters"]; !ok {
		t.Fatalf("metrics JSON has no counters: %v", metrics)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestSearchObservability checks -metrics and -trace-out on the search
// binary: the metrics must include the memo counters and a convergence
// series, and the trace must be valid Chrome JSON.
func TestSearchObservability(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	metricsFile := filepath.Join(dir, "metrics.json")
	out := run(t, "mheta-search", "-app", "jacobi", "-config", "HY1", "-scale", "test",
		"-alg", "gbs", "-verify", "-trace-out", traceFile, "-metrics", metricsFile)
	if !strings.Contains(out, "gbs") || !strings.Contains(out, "verify") {
		t.Fatalf("search output:\n%s", out)
	}
	raw, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"search.memo.hits", "search.memo.misses", "search.gbs.best"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q:\n%s", want, raw)
		}
	}
	var events []map[string]any
	mustJSON(t, traceFile, &events)
	if len(events) == 0 {
		t.Fatal("empty Chrome trace")
	}
}

// mustJSON decodes a file or fails the test.
func mustJSON(t *testing.T, path string, into any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("%s is not valid JSON: %v", path, err)
	}
}

// TestExperiments covers the static table and one figure rendering.
func TestExperiments(t *testing.T) {
	out := run(t, "mheta-experiments", "-scale", "test", "-which", "table1")
	if !strings.Contains(out, "DC") || !strings.Contains(out, "HY2") {
		t.Fatalf("table1 output:\n%s", out)
	}
	out = run(t, "mheta-experiments", "-scale", "test", "-which", "fig8")
	if !strings.Contains(out, "I-C/Bal") {
		t.Fatalf("fig8 output:\n%s", out)
	}
}
