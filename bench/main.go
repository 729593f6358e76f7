// Command bench is MHETA's end-to-end benchmark. It drives the system
// only through public entry points: the /predict and /search workloads
// talk HTTP to a real mheta-serve subprocess, and the emulator workloads
// call exec.Run and experiments.Runner.Sweep in-process. Every output is
// checked against an in-process oracle or committed digests, outside the
// timed loops.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones from a traced replay, and a Chrome trace is written to
// --trace-out. Sample counts and other detail go to standard error. See
// bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"mheta/internal/experiments"
)

// defaultSeed is the seed bench/testdata/digests.json was recorded at.
const defaultSeed = 1

// workloads lists the workload names in run order.
var workloads = []string{"predict-hot", "predict-spread", "search", "emulate-10k", "sweep"}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload (see README.md for what an "op" and a unit of work are in
// each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"serve.decode_us", "us"},
	{"serve.resolve_us", "us"},
	{"serve.validate_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.unattributed_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed_ratio", "ratio"},
	{"serve.engines_built", "count"},
	{"serve.search_overhead_us", "us"},
	{"search.memo_batch_us", "us"},
	{"search.memo_hit_ratio", "ratio"},
	{"search.delta_hit_ratio", "ratio"},
	{"search.gbs_us", "us"},
	{"search.genetic_us", "us"},
	{"search.annealing_us", "us"},
	{"search.random_us", "us"},
	{"search.evals_per_search", "count"},
	{"search.pool_batches", "count"},
	{"core.predict_us", "us"},
	{"core.delta_us", "us"},
	{"core.detailed_us", "us"},
	{"core.clone_us", "us"},
	{"core.new_model_ms", "ms"},
	{"instrument.collect_ms", "ms"},
	{"apps.build_us", "us"},
	{"mpi.new_world_ms", "ms"},
	{"mpi.new_world_allocs", "count"},
	{"exec.run_ms", "ms"},
	{"exec.run_allocs", "count"},
	{"exec.run_alloc_mb", "MB"},
	{"exec.ns_per_event", "ns"},
	{"exec.point_run_ms", "ms"},
	{"sched.events", "count"},
	{"sched.sends", "count"},
	{"sched.parks", "count"},
	{"sched.wakes", "count"},
	{"experiments.model_err_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
}

// env is one benchmark invocation's configuration.
type env struct {
	seed     uint64
	seconds  float64 // measured time per run
	tr       *tracer // nil for an untraced run
	serveBin string  // mheta-serve binary for the serve workloads
	// Set-up is repeated at least setups times, and again while the
	// repetitions so far took less than setupBudget seconds in all, to
	// report setup_s as a median.
	setups      int
	setupBudget float64
	// sweepScale sizes the sweep workload's applications.
	sweepScale experiments.Scale
	log        io.Writer // human-readable detail (standard error)
}

// maxSetups caps the repetitions of a quick set-up.
const maxSetups = 15

// moreSetups reports whether set-up runs again after repetitions that
// took times seconds. A traced run, which does not report setup_s, sets
// up once. A quick set-up (a server answering one scenario takes about
// 0.1 s) repeats until the budget is spent, so that its median settles.
func (e *env) moreSetups(times []float64) bool {
	n := len(times)
	if e.tr != nil {
		return n < 1
	}
	spent := 0.0
	for _, t := range times {
		spent += t
	}
	return n < e.setups || (n < maxSetups && spent < e.setupBudget)
}

// report is what a workload measured: operation counts, metric values
// by name, and whether every output checked out.
type report struct {
	attempted, failed int64
	values            map[string]float64
	log               io.Writer
}

func newReport(log io.Writer) *report {
	return &report{values: make(map[string]float64), log: log}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// op counts one attempted operation; a false ok counts it as failed and
// logs the first few failures.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
	}
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, runs one workload and prints its result; it returns
// the process exit code: 0 when every output was correct, 1 otherwise,
// 2 for a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloads))
	seed := fs.Uint64("seed", defaultSeed, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 18, "measured time of the run, in seconds")
	traceOn := fs.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	serveBin := fs.String("serve-bin", "", "mheta-serve binary (bench/run.sh builds it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || fs.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "usage: bench -workload %v -seed n -seconds s -trace 0|1\n", workloads)
		return 2
	}
	e := &env{
		seed:        *seed,
		seconds:     *seconds,
		serveBin:    *serveBin,
		setups:      3,
		setupBudget: 2,
		sweepScale:  experiments.ScaleQuick,
		log:         stderr,
	}
	if *traceOn == 1 {
		e.tr = newTracer()
	}
	path := *traceOut
	if path == "" {
		path = ".bench_build/trace-" + *workload + ".json"
	}
	return execute(ctx, *workload, e, path, stdout)
}

// execute runs the workload, writes the Chrome trace of a traced run to
// tracePath, and prints the result line; it returns the exit code.
func execute(ctx context.Context, workload string, e *env, tracePath string, stdout io.Writer) int {
	stderr := e.log
	rep, err := runWorkload(ctx, workload, e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	defs := endToEnd
	if e.tr != nil {
		defs = perLayer
		if err := e.tr.writeChromeFile(tracePath); err != nil {
			fmt.Fprintf(stderr, "bench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "trace: %d spans written to %s\n", len(e.tr.spans), tracePath)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && e.tr == nil {
			fmt.Fprintf(stderr, "bench: %s did not measure %s\n", workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stderr, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, name string, e *env) (*report, error) {
	switch name {
	case "predict-hot":
		return runPredict(ctx, e, hotStream(e.seed))
	case "predict-spread":
		return runPredict(ctx, e, spreadStream(e.seed))
	case "search":
		return runSearch(ctx, e)
	case "emulate-10k":
		return runEmulate(ctx, e)
	default:
		return runSweep(ctx, e)
	}
}
