// mheta-search finds an efficient data distribution for an application on
// a heterogeneous cluster using MHETA as the evaluation function — the
// role the model plays inside the paper's runtime system (§1, §5.3).
//
// Usage:
//
//	mheta-search -app jacobi -config HY1 -alg gbs
//	mheta-search -app lanczos -config HY2 -alg all -verify
//	mheta-search -app rna -config HY2 -alg genetic -metrics m.json
//	mheta-search -app jacobi -config IO -alg gbs -verify -trace-out run.json
//
// -metrics records the memo hit/miss counters, the delta-path counters
// and the per-algorithm convergence series; -trace-out (single -alg, with
// -verify) writes the verification run's timeline as Chrome trace-event
// JSON for Perfetto.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mheta"
	"mheta/cmd/internal/cliutil"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/mpi"
	"mheta/internal/stats"
	"mheta/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mheta-search: ")
	appName := flag.String("app", "jacobi", "application: jacobi, jacobi-pf, cg, lanczos, rna, multigrid")
	scaleFlag := flag.String("scale", "paper", "dataset scale: paper, quick or test")
	configName := flag.String("config", "HY1", "cluster configuration: DC, IO, HY1, HY2")
	alg := flag.String("alg", "gbs", "algorithm: gbs, genetic, annealing, random, all")
	verify := flag.Bool("verify", false, "run the found distribution on the emulator and report the actual time")
	traceOut := flag.String("trace-out", "", "write the -verify run's timeline as Chrome trace-event JSON to this file (single -alg only)")
	seed := flag.Uint64("seed", 42, "noise seed")
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	scale := cliutil.ParseScale(*scaleFlag)
	if *traceOut != "" {
		if !*verify {
			cliutil.Usagef("-trace-out traces the verification run; add -verify")
		}
		if *alg == "all" {
			cliutil.Usagef("-trace-out needs a single -alg, not all")
		}
	}
	reg := obsFlags.Start()
	defer obsFlags.Finish()

	app, err := buildApp(*appName, scale)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := mheta.NamedCluster(*configName)
	if err != nil {
		log.Fatal(err)
	}
	model, err := mheta.Instrument(spec, app, *seed)
	if err != nil {
		log.Fatalf("instrument: %v", err)
	}

	algs := []string{*alg}
	if *alg == "all" {
		algs = []string{mheta.AlgGBS, mheta.AlgGenetic, mheta.AlgAnnealing, mheta.AlgRandom}
	}

	blk := mheta.BlockDistribution(app, spec)
	blkPred := model.Predict(blk).Total
	fmt.Printf("%-10s %10s %8s  %s\n", "algorithm", "pred(s)", "evals", "distribution")
	fmt.Printf("%-10s %10.3f %8s  %v\n", "blk", blkPred, "-", blk)
	for _, a := range algs {
		res, err := mheta.SearchWithOptions(a, spec, app, model, *seed,
			mheta.SearchOptions{Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %10.3f %8d  %v\n", res.Algorithm, res.Time, res.Evaluations, res.Best)
		if *verify {
			actual, err := runActual(spec, app, res.Best, *seed^0xACDC, *traceOut)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %10.3f actual (model diff %.2f%%)\n", "  verify", actual,
				stats.PercentDiff(res.Time, actual)*100)
		}
	}
}

// runActual emulates d, optionally writing the run's Chrome trace.
func runActual(spec mheta.ClusterSpec, app *mheta.App, d mheta.Distribution, seed uint64, traceOut string) (float64, error) {
	var tr *trace.Trace
	opts := exec.Options{}
	if traceOut != "" {
		tr = trace.New()
		opts.Trace = tr
	}
	w := mpi.NewWorld(spec, seed, mheta.DefaultNoise)
	res, err := exec.Run(w, app, d, opts)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return 0, fmt.Errorf("-trace-out: %w", err)
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return 0, fmt.Errorf("-trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return 0, fmt.Errorf("-trace-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "mheta-search: wrote Chrome trace to %s\n", traceOut)
	}
	return res.Time, nil
}

func buildApp(name string, sc experiments.Scale) (*mheta.App, error) {
	b, err := experiments.BuilderByName(name)
	if err != nil {
		return nil, err
	}
	return b.Build(sc), nil
}
