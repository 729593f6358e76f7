// mheta-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	mheta-experiments [-scale paper|quick|test] [-which all|table1|fig8|fig9|fig9pf|fig9apps|fig10|fig11|ratios|search|latency] [-parallel N]
//
// Output is the text rendering of each experiment; EXPERIMENTS.md records
// a reference run alongside the paper's numbers. -parallel N is the sweep
// fan-out: independent (architecture, application) sweeps run on N
// goroutines, and the output is identical for any N.
package main

import (
	"flag"
	"fmt"
	"log"

	"mheta/cmd/internal/cliutil"
	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/experiments"
)

// experimentNames lists every -which value; validation is an exact match
// against this list, up front — the old check ran after the experiments
// and accepted any substring of the joined names ("fig", "s", ...).
var experimentNames = []string{
	"table1", "fig8", "fig9", "fig9pf", "fig9apps", "fig10", "fig11",
	"ratios", "search", "interference", "latency",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mheta-experiments: ")
	scaleFlag := flag.String("scale", "quick", "experiment scale: paper, quick or test")
	which := flag.String("which", "all", "experiment to run: all, table1, fig8, fig9, fig9pf, fig9apps, fig10, fig11, ratios, search, interference, latency")
	seed := flag.Uint64("seed", 0x8E7A, "noise seed")
	parallel := flag.Int("parallel", 1, "worker goroutines for sweep fan-out (>= 1); results are identical for any worker count")
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	scale := cliutil.ParseScale(*scaleFlag)
	if *which != "all" && !knownExperiment(*which) {
		cliutil.Usagef("unknown experiment %q (see -which in -h)", *which)
	}
	r := experiments.DefaultRunner(scale)
	r.Seed = *seed
	r.Workers = cliutil.ParseParallel(*parallel)
	r.Obs = obsFlags.Start()
	defer obsFlags.Finish()

	run := func(name string, fn func() error) {
		if *which != "all" && *which != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("table1", func() error {
		fmt.Println(experiments.RenderTable1())
		return nil
	})
	run("fig8", func() error {
		cfg := apps.DefaultJacobiConfig()
		app := apps.NewJacobi(cfg)
		for _, spec := range cluster.NamedAll() {
			fmt.Println(experiments.RenderFigure8(spec, app.Prog.GlobalElems(), app.Prog.MustVar("B").ElemBytes, 2))
		}
		return nil
	})
	run("fig9", func() error {
		p, err := r.Figure9All()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig9(p))
		return nil
	})
	run("fig9pf", func() error {
		p, err := r.Figure9Prefetch()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig9(p))
		return nil
	})
	run("fig9apps", func() error {
		for _, ab := range []experiments.AppBuilder{experiments.RNABuilder(), experiments.CGBuilder()} {
			p, err := r.Figure9App(ab)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig9(p))
		}
		return nil
	})
	var figs1011 []experiments.Fig1011
	run("fig10", func() error {
		fs, err := r.Figure10()
		if err != nil {
			return err
		}
		figs1011 = append(figs1011, fs...)
		for _, f := range fs {
			fmt.Println(experiments.RenderFig1011(f))
		}
		return nil
	})
	run("fig11", func() error {
		fs, err := r.Figure11()
		if err != nil {
			return err
		}
		figs1011 = append(figs1011, fs...)
		for _, f := range fs {
			fmt.Println(experiments.RenderFig1011(f))
		}
		return nil
	})
	run("ratios", func() error {
		if len(figs1011) == 0 {
			fs10, err := r.Figure10()
			if err != nil {
				return err
			}
			fs11, err := r.Figure11()
			if err != nil {
				return err
			}
			figs1011 = append(fs10, fs11...)
		}
		fmt.Println(experiments.RenderRatios(experiments.BestWorstRatios(figs1011)))
		var sweeps []experiments.SweepResult
		for _, f := range figs1011 {
			sweeps = append(sweeps, f.Sweeps...)
		}
		fmt.Println(experiments.RenderAccuracy(experiments.AccuracySummary(sweeps)))
		return nil
	})
	run("search", func() error {
		for _, spec := range []string{"HY1", "HY2"} {
			cs, err := cluster.Named(spec)
			if err != nil {
				return err
			}
			s, err := r.RunSearchStudy(cs, experiments.JacobiBuilder(false))
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderSearchStudy(s))
		}
		return nil
	})
	run("interference", func() error {
		rows, err := r.InterferenceStudy(cluster.HY1(8), experiments.JacobiBuilder(false),
			[]float64{0, 0.1, 0.2, 0.4, 0.8})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderInterference("Jacobi", "HY1", rows))
		return nil
	})
	run("latency", func() error {
		d, err := r.ModelLatency()
		if err != nil {
			return err
		}
		fmt.Printf("Model evaluation latency: %v per distribution (paper: ~5.4 ms on 2005 hardware)\n", d)
		return nil
	})
}

func knownExperiment(name string) bool {
	for _, n := range experimentNames {
		if n == name {
			return true
		}
	}
	return false
}
