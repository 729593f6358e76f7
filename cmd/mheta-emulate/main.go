// mheta-emulate runs a benchmark application on an emulated heterogeneous
// cluster and reports the actual (virtual) execution time next to MHETA's
// prediction — one row of Figures 10/11.
//
// Usage:
//
//	mheta-emulate -app jacobi -config HY1
//	mheta-emulate -app rna -config DC -dist 512,512,640,640,384,384,512,512
//	mheta-emulate -app cg -config IO -spectrum 3
//	mheta-emulate -app jacobi -config IO -trace-out run.json -metrics m.json
//
// -trace-out writes the single run's per-rank timeline as Chrome
// trace-event JSON; load it in Perfetto (ui.perfetto.dev) or
// chrome://tracing to see sections, I/O and blocked time per rank.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"mheta"
	"mheta/cmd/internal/cliutil"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/mpi"
	"mheta/internal/obs"
	"mheta/internal/stats"
	"mheta/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mheta-emulate: ")
	appName := flag.String("app", "jacobi", "application: jacobi, jacobi-pf, cg, lanczos, rna, multigrid")
	scaleFlag := flag.String("scale", "paper", "dataset scale: paper, quick or test")
	configName := flag.String("config", "HY1", "cluster configuration: DC, IO, HY1, HY2")
	distStr := flag.String("dist", "", "explicit distribution (comma separated); default Blk")
	spectrum := flag.Int("spectrum", 0, "sweep the Figure 8 spectrum with this many steps per leg instead of a single run")
	gantt := flag.Int("gantt", 0, "render a per-rank timeline of this width after a single run (0 disables)")
	traceOut := flag.String("trace-out", "", "write the single run's timeline as Chrome trace-event JSON to this file (view in Perfetto)")
	seed := flag.Uint64("seed", 42, "noise seed")
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	scale := cliutil.ParseScale(*scaleFlag)
	if *traceOut != "" && *spectrum > 0 {
		cliutil.Usagef("-trace-out traces a single run; drop -spectrum")
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

	if *spectrum > 0 {
		var bpe int64
		for _, v := range app.Prog.DistributedVars() {
			bpe += v.ElemBytes
		}
		fmt.Printf("%-12s %10s %10s %8s\n", "position", "actual(s)", "pred(s)", "diff%")
		for _, pt := range dist.Spectrum(app.Prog.GlobalElems(), spec, bpe, *spectrum) {
			report(spec, app, model, pt.Dist, pt.Label, *seed, reg)
		}
		return
	}

	d := mheta.BlockDistribution(app, spec)
	if *distStr != "" {
		d = d[:0]
		for _, f := range strings.Split(*distStr, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				log.Fatalf("bad -dist entry %q: %v", f, err)
			}
			d = append(d, v)
		}
		if err := d.Validate(app.Prog.GlobalElems()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%-12s %10s %10s %8s\n", "dist", "actual(s)", "pred(s)", "diff%")
	report(spec, app, model, d, "given", *seed, reg)

	if *gantt > 0 || *traceOut != "" {
		tr := trace.New()
		w := mpi.NewWorld(spec, *seed^0xACDC, mheta.DefaultNoise)
		if _, err := exec.Run(w, app, d, exec.Options{Trace: tr}); err != nil {
			log.Fatalf("trace run: %v", err)
		}
		if *gantt > 0 {
			fmt.Print(tr.Gantt(spec.N(), *gantt))
		}
		if *traceOut != "" {
			if err := writeChrome(tr, *traceOut); err != nil {
				log.Fatalf("-trace-out: %v", err)
			}
			fmt.Fprintf(os.Stderr, "mheta-emulate: wrote Chrome trace to %s\n", *traceOut)
		}
		if reg != nil {
			reg.Counter("emulate.trace.spans").Add(int64(len(tr.Spans())))
			for _, st := range tr.Stats(spec.N()) {
				reg.Gauge(fmt.Sprintf("emulate.rank.%02d.blocked_s", st.Rank)).Set(float64(st.Blocked))
			}
			fmt.Fprint(os.Stderr, tr.SummaryTable(spec.N()))
		}
	}
}

func writeChrome(tr *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(spec mheta.ClusterSpec, app *mheta.App, model *mheta.Model, d mheta.Distribution, label string, seed uint64, reg *obs.Registry) {
	actual, err := mheta.RunActual(spec, app, d, seed^0xACDC)
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	pred := model.Predict(d)
	if label == "" {
		label = "·"
	}
	fmt.Printf("%-12s %10.3f %10.3f %8.2f\n", label, actual, pred.Total,
		stats.PercentDiff(pred.Total, actual)*100)
	if reg != nil {
		reg.Counter("emulate.runs").Inc()
		reg.Gauge("emulate.actual_s").Set(actual)
		reg.Gauge("emulate.pred_s").Set(pred.Total)
		reg.Histogram("emulate.diff_pct", []float64{1, 2, 5, 10, 25}).
			Observe(stats.PercentDiff(pred.Total, actual) * 100)
	}
}

func buildApp(name string, sc experiments.Scale) (*mheta.App, error) {
	b, err := experiments.BuilderByName(name)
	if err != nil {
		return nil, err
	}
	return b.Build(sc), nil
}
