package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/stats"
)

// sweepPair is one (architecture, application) spectrum sweep.
type sweepPair struct {
	config string
	app    experiments.AppBuilder
}

// sweepPairs is the sweep workload's pass: Figures 10/11's mix of
// in-core, out-of-core, pipelined and collective-heavy applications.
func sweepPairs() []sweepPair {
	return []sweepPair{
		{"DC", experiments.JacobiBuilder(false)},
		{"IO", experiments.JacobiBuilder(true)},
		{"HY1", experiments.RNABuilder()},
		{"HY2", experiments.CGBuilder()},
		{"HY2", experiments.LanczosBuilder()},
	}
}

// instrumentPairs instruments every pair as Runner.Sweep's first step
// does. It is the sweep workload's set-up: it warms the process before
// the timed passes, and setup_s shows work moved into instrumentation.
func instrumentPairs(e *env, pairs []sweepPair) error {
	for _, sp := range pairs {
		spec, err := cluster.Named(sp.config)
		if err != nil {
			return err
		}
		app := sp.app.Build(e.sweepScale)
		params, err := instrument.Collect(spec, app, dist.Block(app.Prog.GlobalElems(), spec.N()), e.seed, 0.02)
		if err != nil {
			return err
		}
		if _, err := core.NewModel(params); err != nil {
			return err
		}
	}
	return nil
}

// runSweep runs the sweep workload: as many whole passes of Runner.Sweep
// over the pairs as fit the run, at least one. Set-up, repeated for
// setup_s, instruments the pairs.
func runSweep(ctx context.Context, e *env) (*report, error) {
	rep := newReport(e.log)
	pairs := sweepPairs()
	var setup []float64
	for e.moreSetups(setup) {
		t0 := time.Now()
		if err := instrumentPairs(e, pairs); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	runner := &experiments.Runner{Scale: e.sweepScale, Seed: e.seed, NoiseAmp: 0.02, StepsPerLeg: 3, Workers: 1}
	if e.tr != nil {
		return rep, traceSweep(ctx, e, rep, runner, pairs)
	}

	var lat []float64 // one per Sweep call
	var points, busy float64
	var firstPass [][]experiments.Point
	for passes := 1; len(lat) < passes*len(pairs); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, times, err := sweepPass(runner, pairs)
		if err != nil {
			return nil, err
		}
		if firstPass == nil {
			firstPass = res
		}
		lat = append(lat, times...)
		var passSecs float64
		for p := range res {
			points += float64(len(res[p]))
			passSecs += times[p] / 1e3
			checkSweep(rep, res[p], firstPass[p], pairs[p])
		}
		busy += passSecs
		if len(lat) == len(pairs) { // as many whole passes as the first says fit
			passes = max(1, int(math.Round(e.seconds/passSecs)))
		}
	}
	var words []uint64
	for _, pts := range firstPass {
		for _, pt := range pts {
			words = append(words, math.Float64bits(pt.Actual), math.Float64bits(pt.Predicted))
		}
	}
	checkDigest(rep, fmt.Sprintf("sweep/%s/seed=%d", e.sweepScale, e.seed), words)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "sweep: setup %d×, %d Sweep calls, %.0f points\n", len(setup), len(lat), points)
	rep.set("setup_s", stats.Median(setup))
	rep.setLatency(lat, 0.9)
	rep.set("work_per_s", points/busy)
	rep.set("peak_rss_mb", rss)
	return rep, nil
}

// sweepPass runs Runner.Sweep once per pair, returning the points and
// each call's time in milliseconds.
func sweepPass(runner *experiments.Runner, pairs []sweepPair) ([][]experiments.Point, []float64, error) {
	res := make([][]experiments.Point, len(pairs))
	times := make([]float64, len(pairs))
	for p, sp := range pairs {
		spec, err := cluster.Named(sp.config)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		s, err := runner.Sweep(spec, sp.app, false)
		times[p] = time.Since(t0).Seconds() * 1e3
		if err != nil {
			return nil, nil, err
		}
		res[p] = s.Points
	}
	return res, times, nil
}

// checkSweep counts each point as one operation: both its times must
// repeat those of the first pass bit for bit. The first pass itself is
// checked against testdata/digests.json at the default seed.
func checkSweep(rep *report, pts, first []experiments.Point, sp sweepPair) {
	for k, pt := range pts {
		ok := k < len(first) && sameBits(pt.Actual, first[k].Actual) && sameBits(pt.Predicted, first[k].Predicted)
		rep.op(ok, "sweep %s/%s point %d: predicted %v, actual %v differ from the first pass", sp.config, sp.app.Name, k, pt.Predicted, pt.Actual)
	}
	if len(pts) != len(first) {
		rep.op(false, "sweep %s/%s: %d points, first pass had %d", sp.config, sp.app.Name, len(pts), len(first))
	}
}

// traceSweep runs one pass, timing each Runner.Sweep call untraced and
// then replaying it with a span around each public call Sweep makes:
// instrument.Collect, core.NewModel, then per point mpi.NewWorld,
// exec.Run and Model.Predict. The replay must reproduce Sweep's points
// bit for bit.
func traceSweep(ctx context.Context, e *env, rep *report, runner *experiments.Runner, pairs []sweepPair) error {
	var plain, traced, diffs []float64
	for p, sp := range pairs {
		if err := ctx.Err(); err != nil {
			return err
		}
		spec, err := cluster.Named(sp.config)
		if err != nil {
			return err
		}
		t0 := time.Now()
		sw, err := runner.Sweep(spec, sp.app, false)
		plain = append(plain, float64(time.Since(t0))/1e6)
		if err != nil {
			return err
		}
		want := sw.Points
		for _, pt := range want {
			diffs = append(diffs, pt.Diff*100)
		}

		op := int64(p)
		t0 = time.Now()
		root := e.tr.begin("sweep.pair", -1, op)
		s := e.tr.begin("apps.build", root, op)
		app := sp.app.Build(runner.Scale)
		e.tr.end(s)
		total := app.Prog.GlobalElems()
		s = e.tr.begin("instrument.collect", root, op)
		params, err := instrument.Collect(spec, app, dist.Block(total, spec.N()), runner.Seed, runner.NoiseAmp)
		e.tr.end(s)
		if err != nil {
			return err
		}
		s = e.tr.begin("core.new_model", root, op)
		model, err := core.NewModel(params)
		e.tr.end(s)
		if err != nil {
			return err
		}
		var bpe int64
		for _, v := range app.Prog.DistributedVars() {
			bpe += v.ElemBytes
		}
		for k, pt := range dist.Spectrum(total, spec, bpe, runner.StepsPerLeg) {
			s = e.tr.begin("mpi.new_world", root, op)
			w := mpi.NewWorld(spec, runner.Seed^0xACDC, runner.NoiseAmp)
			e.tr.end(s)
			s = e.tr.begin("exec.run", root, op)
			run, err := exec.Run(w, app, pt.Dist, exec.Options{})
			e.tr.end(s)
			if err != nil {
				return err
			}
			s = e.tr.begin("core.predict", root, op)
			pred := model.Predict(pt.Dist)
			e.tr.end(s)
			ok := k < len(want) && sameBits(run.Time, want[k].Actual) && sameBits(pred.Total, want[k].Predicted)
			rep.op(ok, "traced sweep %s/%s point %d differs from Runner.Sweep", sp.config, sp.app.Name, k)
		}
		e.tr.end(root)
		traced = append(traced, float64(time.Since(t0))/1e6)
	}
	st := e.tr.stats()
	setInstrumentMetrics(rep, st)
	rep.set("mpi.new_world_ms", st.meanUS("mpi.new_world")/1e3)
	rep.set("exec.point_run_ms", st.meanUS("exec.run")/1e3)
	rep.set("core.predict_us", st.meanUS("core.predict"))
	rep.set("experiments.model_err_pct", stats.Mean(diffs))
	rep.set("trace.overhead_pct", overheadPct(plain, traced))
	rep.set("trace.coverage_pct", 100*st.layerUS("sweep.pair")/st.meanUS("sweep.pair"))
	fmt.Fprintf(e.log, "sweep traced: %d points\n", len(diffs))
	return nil
}
