// mheta-bench runs the repo's model/memo/search benchmark suite through
// `go test -bench -json`, distills each benchmark to ns/op, B/op,
// allocs/op and its custom metrics (evals, cands/s, ...), and either
// records the distilled results as a committed baseline
// (BENCH_BASELINE.json, written with -update) or compares a fresh run
// against that baseline.
//
// Compare mode gates the benchmarks matching -gate (the memo and search
// benchmarks by default): the run fails when ns/op regresses past
// -max-ns-ratio or allocs/op regresses at all. Benchmarks absent from
// the baseline are reported as "new" and never fail — committing the
// next baseline adopts them. The full comparison (including the
// ungated, information-only rows) can be written as a JSON report with
// -out for CI artifacts.
//
// The baseline is machine-specific (it records wall-clock densities);
// the committed file exists to pin the *trajectory* on CI's runner
// class, with a generous ratio gate absorbing runner noise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultBench selects the micro benchmarks: model evaluation, memo,
// search and emulator throughput, the /predict handler and the HTTP
// serving path, and the validation sweep. The
// experiment-replay benchmarks (Figure9*, SearchStudy, ...) run the
// emulator for minutes and measure accuracy, not speed; they are not
// recorded. Sweep is recorded but not gated (see defaultGate).
const defaultBench = "^Benchmark(ModelEvaluate|ModelEvaluatePipelined|" +
	"MemoisedEvaluate|MemoisedEvaluateObserved|MemoConcurrentBatches|" +
	"DeltaEvaluate|DeltaEvaluatePipelined|Emulate|PredictHandler|ServePredict|" +
	"SearchGBS|SearchGenetic|SearchAnnealing|SearchRandom|" +
	"SearchFreshClone|Sweep)$"

// defaultGate guards the memo, search, emulator-scaling and /predict
// handler benchmarks — the ones whose performance this repo actively
// optimises and must not quietly lose. The handler benchmark runs one
// request at a time through Server.ServeHTTP with no connection, so its
// allocation count is the handler's own plus a fixed httptest set-up.
// The HTTP serving benchmark stays out of the ns/allocs gate (net/http
// connection allocation counts drift across Go releases and load
// patterns); it is held to its throughput floor via -min-metric instead.
// Sweep stays out too: one op takes seconds, and on a host whose speed
// drifts 2× a one-op ns/op is noise (bench/README.md).
const defaultGate = "^Benchmark(Memoised|MemoConcurrentBatches|Search|Emulate|PredictHandler)"

// defaultMinMetric pins absolute throughput floors: benchmarks that must
// not just avoid regressing relative to the baseline but must clear a
// hard bar. The server's acceptance bar is 1000 predict requests/s.
const defaultMinMetric = "BenchmarkServePredict:req/s:1000"

// allocSlack is the relative tolerance on allocs/op before a gated
// benchmark counts as a regression. Allocation counts are exact for
// small-footprint benchmarks (0.1% of 2 allocs rounds to nothing, so
// 2→3 still fails) but drift by a handful per run once a benchmark
// makes ~10^6 allocations per op — runtime-internal allocations leak
// into the per-op average at that scale.
const allocSlack = 0.001

func main() {
	log.SetFlags(0)
	log.SetPrefix("mheta-bench: ")
	var (
		bench     = flag.String("bench", defaultBench, "go test -bench regexp selecting the benchmarks to run")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime per benchmark")
		count     = flag.Int("count", 1, "go test -count; with >1 the best (minimum ns/op) run of each benchmark is kept")
		pkg       = flag.String("pkg", ".", "package directory holding the benchmark suite")
		baseline  = flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against (or write with -update)")
		update    = flag.Bool("update", false, "write the distilled results to -baseline instead of comparing")
		out       = flag.String("out", "", "write the comparison report as JSON to this file")
		gate      = flag.String("gate", defaultGate, "regexp selecting the benchmarks gated for regressions")
		maxRatio  = flag.Float64("max-ns-ratio", 1.5, "fail when a gated benchmark's ns/op exceeds baseline × ratio")
		minMetric = flag.String("min-metric", defaultMinMetric,
			"comma-separated name:metric:floor triplets; fail when the named benchmark's custom metric falls below the floor (empty disables)")
		fromStdin = flag.Bool("stdin", false, "parse `go test -json` events from stdin instead of running go test")
	)
	flag.Parse()

	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		log.Fatalf("bad -gate regexp: %v", err)
	}
	floors, err := parseFloors(*minMetric)
	if err != nil {
		log.Fatalf("bad -min-metric: %v", err)
	}

	var results map[string]Result
	if *fromStdin {
		results, err = parseEvents(os.Stdin)
	} else {
		results, err = runBenchmarks(*pkg, *bench, *benchtime, *count)
	}
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatalf("no benchmark results matched %q", *bench)
	}

	if *update {
		b := Baseline{
			Schema:     "mheta-bench/v1",
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Bench:      *bench,
			Benchtime:  *benchtime,
			Benchmarks: results,
		}
		if err := writeJSON(*baseline, b); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *baseline, len(results))
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		log.Fatalf("%v (record one with -update)", err)
	}
	rep := compare(base, results, gateRe, *maxRatio, floors)
	rep.Baseline = *baseline
	printReport(os.Stdout, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			log.Fatal(err)
		}
	}
	if rep.Regressions > 0 {
		log.Fatalf("%d gated regression(s)", rep.Regressions)
	}
}

// Result is one benchmark distilled: the standard densities plus every
// custom b.ReportMetric value.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed BENCH_BASELINE.json schema.
type Baseline struct {
	Schema     string            `json:"schema"`
	GoVersion  string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Bench      string            `json:"bench"`
	Benchtime  string            `json:"benchtime"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// runBenchmarks shells out to go test and distills its -json stream.
func runBenchmarks(pkg, bench, benchtime string, count int) (map[string]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "-json", pkg}
	fmt.Printf("go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()
	results, parseErr := parseEvents(&stdout)
	if runErr != nil {
		return nil, fmt.Errorf("go test: %v\n%s%s", runErr, stderr.String(), tail(stdout.String(), 4096))
	}
	return results, parseErr
}

// tail returns at most the last n bytes of s (for error context).
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "...\n" + s[len(s)-n:]
}

// testEvent is the subset of the test2json stream mheta-bench consumes.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// parseEvents reads a `go test -json` stream and distills the benchmark
// result lines. test2json flushes benchmark output at timing boundaries,
// so one result line ("BenchmarkX  \t" + "  141955\t  918.4 ns/op\n")
// arrives split across Output events; lines are reassembled per test
// before parsing. With -count > 1 the minimum ns/op run wins (benchmarks
// are noisy upward, not downward).
func parseEvents(r io.Reader) (map[string]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	results := make(map[string]Result)
	take := func(line string) {
		name, res, ok := parseBenchLine(line)
		if !ok {
			return
		}
		if prev, seen := results[name]; !seen || res.NsPerOp < prev.NsPerOp {
			results[name] = res
		}
	}
	partial := make(map[string]string) // test key -> unterminated line tail
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // non-JSON noise (e.g. build output passed through)
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "\x00" + ev.Test
		buf := partial[key] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			take(buf[:nl])
			buf = buf[nl+1:]
		}
		if buf == "" {
			delete(partial, key)
		} else {
			partial[key] = buf
		}
	}
	for _, buf := range partial {
		take(buf)
	}
	return results, sc.Err()
}

// parseBenchLine parses one `testing` benchmark result line, e.g.
//
//	BenchmarkSearchGBS-8  14402  82324 ns/op  45.00 evals  1234 B/op  5 allocs/op
//
// returning the name with the trailing -GOMAXPROCS suffix stripped.
func parseBenchLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", Result{}, false
	}
	res := Result{}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
			sawNs = true
		case "B/op":
			res.BytesPerOp = val
		case "allocs/op":
			res.AllocsPerOp = val
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = val
		}
	}
	if !sawNs {
		return "", Result{}, false
	}
	return stripProcs(fields[0]), res, true
}

// stripProcs removes the -GOMAXPROCS suffix go test appends to every
// benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseFloors parses the -min-metric flag: comma-separated
// name:metric:floor triplets, e.g. "BenchmarkServePredict:req/s:1000".
// Metric names may themselves contain ':'-free slashes ("req/s"); the
// floor is everything after the last colon, the benchmark name before
// the first.
func parseFloors(spec string) (map[string]map[string]float64, error) {
	floors := make(map[string]map[string]float64)
	if strings.TrimSpace(spec) == "" {
		return floors, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("%q is not name:metric:floor", part)
		}
		cut := strings.LastIndex(rest, ":")
		if cut < 0 {
			return nil, fmt.Errorf("%q is not name:metric:floor", part)
		}
		metric, floorStr := rest[:cut], rest[cut+1:]
		floor, err := strconv.ParseFloat(floorStr, 64)
		if err != nil || name == "" || metric == "" {
			return nil, fmt.Errorf("%q is not name:metric:floor", part)
		}
		if floors[name] == nil {
			floors[name] = make(map[string]float64)
		}
		floors[name][metric] = floor
	}
	return floors, nil
}

// checkFloors fails the row when a floored metric is below its bar (or
// missing from the run entirely), returning the human-readable reasons.
func checkFloors(mins map[string]float64, c Result) []string {
	metrics := make([]string, 0, len(mins))
	for m := range mins {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	var bad []string
	for _, m := range metrics {
		v, ok := c.Metrics[m]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s missing (floor %.4g)", m, mins[m]))
		} else if v < mins[m] {
			bad = append(bad, fmt.Sprintf("%s %.4g < floor %.4g", m, v, mins[m]))
		}
	}
	return bad
}

// Report is the comparison between a run and the committed baseline.
type Report struct {
	Baseline    string      `json:"baseline"`
	Gate        string      `json:"gate"`
	MaxNsRatio  float64     `json:"max_ns_ratio"`
	Regressions int         `json:"regressions"`
	Rows        []ReportRow `json:"rows"`
}

// ReportRow is one benchmark's comparison.
type ReportRow struct {
	Name        string  `json:"name"`
	Status      string  `json:"status"` // ok | regression | new | missing | info
	Gated       bool    `json:"gated"`
	BaseNs      float64 `json:"base_ns_per_op,omitempty"`
	CurNs       float64 `json:"cur_ns_per_op,omitempty"`
	NsRatio     float64 `json:"ns_ratio,omitempty"`
	BaseAllocs  float64 `json:"base_allocs_per_op"`
	CurAllocs   float64 `json:"cur_allocs_per_op"`
	MetricNotes string  `json:"metric_notes,omitempty"`
}

// compare builds the report. Gated benchmarks fail on ns/op past
// maxRatio or any allocs/op growth; floored benchmarks additionally fail
// when a -min-metric bar is not cleared (the floor is absolute, so it
// applies even to benchmarks the baseline has not adopted yet);
// everything else is informational.
func compare(base Baseline, cur map[string]Result, gate *regexp.Regexp, maxRatio float64, floors map[string]map[string]float64) Report {
	rep := Report{Gate: gate.String(), MaxNsRatio: maxRatio}
	names := make([]string, 0, len(cur)+len(base.Benchmarks))
	for n := range cur {
		names = append(names, n)
	}
	for n := range base.Benchmarks {
		if _, ok := cur[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		c, haveCur := cur[n]
		b, haveBase := base.Benchmarks[n]
		row := ReportRow{Name: n, Gated: gate.MatchString(n)}
		switch {
		case !haveBase:
			row.Status = "new"
			row.CurNs, row.CurAllocs = c.NsPerOp, c.AllocsPerOp
		case !haveCur:
			row.Status = "missing"
			row.BaseNs, row.BaseAllocs = b.NsPerOp, b.AllocsPerOp
		default:
			row.BaseNs, row.CurNs = b.NsPerOp, c.NsPerOp
			row.BaseAllocs, row.CurAllocs = b.AllocsPerOp, c.AllocsPerOp
			if b.NsPerOp > 0 {
				row.NsRatio = c.NsPerOp / b.NsPerOp
			}
			row.MetricNotes = metricNotes(b, c)
			switch {
			case !row.Gated:
				row.Status = "info"
			case row.NsRatio > maxRatio || c.AllocsPerOp > b.AllocsPerOp*(1+allocSlack):
				row.Status = "regression"
				rep.Regressions++
			default:
				row.Status = "ok"
			}
		}
		if mins, ok := floors[n]; ok && haveCur {
			if bad := checkFloors(mins, c); len(bad) > 0 {
				if row.Status != "regression" {
					row.Status = "regression"
					rep.Regressions++
				}
				note := "below floor: " + strings.Join(bad, ", ")
				if row.MetricNotes != "" {
					note = row.MetricNotes + ", " + note
				}
				row.MetricNotes = note
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// metricNotes summarises shared custom metrics, e.g.
// "cands/s 5.5e+05→3.1e+06 (5.7x)".
func metricNotes(b, c Result) string {
	keys := make([]string, 0, len(c.Metrics))
	for k := range c.Metrics {
		if _, ok := b.Metrics[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		bv, cv := b.Metrics[k], c.Metrics[k]
		note := fmt.Sprintf("%s %.3g→%.3g", k, bv, cv)
		if bv > 0 {
			note += fmt.Sprintf(" (%.2fx)", cv/bv)
		}
		parts = append(parts, note)
	}
	return strings.Join(parts, ", ")
}

func printReport(w *os.File, rep Report) {
	fmt.Fprintf(w, "%-52s %-10s %12s %12s %7s %14s\n", "benchmark", "status", "base ns/op", "cur ns/op", "ratio", "allocs b→c")
	for _, r := range rep.Rows {
		gatedMark := " "
		if r.Gated {
			gatedMark = "*"
		}
		fmt.Fprintf(w, "%s%-51s %-10s %12.0f %12.0f %7.2f %6.0f→%-6.0f\n",
			gatedMark, r.Name, r.Status, r.BaseNs, r.CurNs, r.NsRatio, r.BaseAllocs, r.CurAllocs)
		if r.MetricNotes != "" {
			fmt.Fprintf(w, "    %s\n", r.MetricNotes)
		}
	}
	fmt.Fprintf(w, "gate %q, max ns ratio %.2f: %d regression(s)\n", rep.Gate, rep.MaxNsRatio, rep.Regressions)
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %v", path, err)
	}
	return b, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
