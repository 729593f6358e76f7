// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the headline measurements and the DESIGN.md
// ablations. Benchmarks run the experiments at test scale so the whole
// suite finishes in minutes; use cmd/mheta-experiments -scale quick (or
// paper) for the full-size regeneration recorded in EXPERIMENTS.md.
//
// Each benchmark reports the figures' key quantities as custom metrics:
// avg%/max% prediction difference for the accuracy panels, worst/best
// execution-time ratios for the spread claims, and ns/op for the model
// evaluation cost (the paper's "about 5.4 ms per distribution").
package mheta_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mheta"
	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/sched"
	"mheta/internal/search"
	"mheta/internal/serve"
	"mheta/internal/stats"
)

func benchRunner() *experiments.Runner {
	r := experiments.DefaultRunner(experiments.ScaleTest)
	r.StepsPerLeg = 2
	return r
}

// BenchmarkTable1Configs builds and validates the four Table 1
// architectures (trivially fast; exists so every table has a bench
// target).
func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, row := range experiments.Table1() {
			if err := row.Spec.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure8Spectrum generates the distribution spectrum walk for
// each named configuration.
func BenchmarkFigure8Spectrum(b *testing.B) {
	app := apps.NewJacobi(apps.DefaultJacobiConfig())
	total := app.Prog.GlobalElems()
	bpe := app.Prog.MustVar("B").ElemBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range cluster.NamedAll() {
			pts := dist.Spectrum(total, spec, bpe, 4)
			if len(pts) == 0 {
				b.Fatal("empty spectrum")
			}
		}
	}
}

// BenchmarkFigure9All regenerates the top-left Figure 9 panel: all four
// applications over the seventeen architectures, reporting the panel's
// average and maximum percent difference.
func BenchmarkFigure9All(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		panel, err := r.Figure9All()
		if err != nil {
			b.Fatal(err)
		}
		reportPanel(b, panel)
	}
}

// BenchmarkFigure9Prefetch regenerates the top-right panel: prefetching
// Jacobi over the twelve I/O-relevant architectures.
func BenchmarkFigure9Prefetch(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		panel, err := r.Figure9Prefetch()
		if err != nil {
			b.Fatal(err)
		}
		reportPanel(b, panel)
	}
}

// BenchmarkFigure9RNA regenerates the bottom-left panel (the paper's
// best-case application).
func BenchmarkFigure9RNA(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		panel, err := r.Figure9App(experiments.RNABuilder())
		if err != nil {
			b.Fatal(err)
		}
		reportPanel(b, panel)
	}
}

// BenchmarkFigure9CG regenerates the bottom-right panel (the paper's
// worst-case application, §5.4's sparse limitation).
func BenchmarkFigure9CG(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		panel, err := r.Figure9App(experiments.CGBuilder())
		if err != nil {
			b.Fatal(err)
		}
		reportPanel(b, panel)
	}
}

func reportPanel(b *testing.B, panel experiments.Fig9Panel) {
	b.Helper()
	maxDiff := 0.0
	for _, pt := range panel.Points {
		if pt.Max > maxDiff {
			maxDiff = pt.Max
		}
	}
	b.ReportMetric(panel.OverallAvg*100, "avg%diff")
	b.ReportMetric(maxDiff*100, "max%diff")
}

// BenchmarkFigure10DC and BenchmarkFigure10IO regenerate the Figure 10
// predicted-vs-actual series.
func BenchmarkFigure10DC(b *testing.B) { benchFig1011(b, cluster.DC(8)) }
func BenchmarkFigure10IO(b *testing.B) { benchFig1011(b, cluster.IO(8)) }

// BenchmarkFigure11HY1 and BenchmarkFigure11HY2 regenerate Figure 11.
func BenchmarkFigure11HY1(b *testing.B) { benchFig1011(b, cluster.HY1(8)) }
func BenchmarkFigure11HY2(b *testing.B) { benchFig1011(b, cluster.HY2(8)) }

func benchFig1011(b *testing.B, spec cluster.Spec) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		var diffs []float64
		ratio := 0.0
		for _, ab := range experiments.PaperApps() {
			s, err := r.Sweep(spec, ab, false)
			if err != nil {
				b.Fatal(err)
			}
			diffs = append(diffs, s.Diffs()...)
			if rr := s.Ratio(); rr > ratio {
				ratio = rr
			}
		}
		b.ReportMetric(stats.Mean(diffs)*100, "avg%diff")
		b.ReportMetric(ratio, "worst/best")
	}
}

// BenchmarkSweep times one Runner.Sweep — instrument, then emulate and
// predict the spectrum — per (architecture, application) pair of the
// end-to-end benchmark's sweep workload, at quick scale, reporting
// spectrum points per second.
func BenchmarkSweep(b *testing.B) {
	r := &experiments.Runner{Scale: experiments.ScaleQuick, Seed: 1, NoiseAmp: 0.02, StepsPerLeg: 3, Workers: 1}
	for _, c := range []struct {
		spec cluster.Spec
		ab   experiments.AppBuilder
	}{
		{cluster.DC(8), experiments.JacobiBuilder(false)},
		{cluster.IO(8), experiments.JacobiBuilder(true)},
		{cluster.HY1(8), experiments.RNABuilder()},
		{cluster.HY2(8), experiments.CGBuilder()},
		{cluster.HY2(8), experiments.LanczosBuilder()},
	} {
		b.Run(c.spec.Name+"-"+c.ab.Name, func(b *testing.B) {
			points := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := r.Sweep(c.spec, c.ab, false)
				if err != nil {
					b.Fatal(err)
				}
				points += len(s.Points)
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkModelEvaluate measures one MHETA evaluation — the paper's
// "about 5.4 ms per distribution" headline. ns/op is the comparable
// number.
func BenchmarkModelEvaluate(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	params, err := instrument.Collect(spec, app, dist.Block(cfg.Rows, 8), 42, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	model := core.MustModel(params)
	pts := dist.SpectrumFull(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(pts[i%len(pts)].Dist)
	}
}

// BenchmarkModelEvaluatePipelined measures evaluation cost for the
// pipelined (per-tile recurrence) application, the model's worst case.
func BenchmarkModelEvaluatePipelined(b *testing.B) {
	spec := cluster.DC(8)
	cfg := apps.DefaultRNAConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 128, 3
	app := apps.NewRNA(cfg)
	params, err := instrument.Collect(spec, app, dist.Block(cfg.Rows, 8), 42, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	model := core.MustModel(params)
	pts := dist.SpectrumFull(cfg.Rows, spec, app.Prog.MustVar("T").ElemBytes, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(pts[i%len(pts)].Dist)
	}
}

// BenchmarkDeltaEvaluate measures one incremental (delta) evaluation over
// the spectrum walk — the same workload as BenchmarkModelEvaluate scored
// through core.DeltaEvaluator's cached busy terms. The delta%hit metric
// is the fraction of candidates served by the replay path (the rest fell
// back to full evaluation); results are bit-identical either way.
func BenchmarkDeltaEvaluate(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	params, err := instrument.Collect(spec, app, dist.Block(cfg.Rows, 8), 42, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	model := core.MustModel(params)
	de := model.Delta()
	pts := dist.SpectrumFull(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = de.Evaluate(pts[i%len(pts)].Dist)
	}
	st := de.Stats()
	if b.N > 0 && st.FullEvals <= int64(b.N) {
		b.ReportMetric(100*(1-float64(st.FullEvals)/float64(b.N)), "delta%hit")
	}
}

// BenchmarkDeltaEvaluatePipelined is BenchmarkModelEvaluatePipelined
// through the delta evaluator: the pipelined (per-tile recurrence)
// application is the model's worst case, and its busy terms cache the
// same way — only the clock chaining replays per candidate.
func BenchmarkDeltaEvaluatePipelined(b *testing.B) {
	spec := cluster.DC(8)
	cfg := apps.DefaultRNAConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 128, 3
	app := apps.NewRNA(cfg)
	params, err := instrument.Collect(spec, app, dist.Block(cfg.Rows, 8), 42, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	model := core.MustModel(params)
	de := model.Delta()
	pts := dist.SpectrumFull(cfg.Rows, spec, app.Prog.MustVar("T").ElemBytes, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = de.Evaluate(pts[i%len(pts)].Dist)
	}
	st := de.Stats()
	if b.N > 0 && st.FullEvals <= int64(b.N) {
		b.ReportMetric(100*(1-float64(st.FullEvals)/float64(b.N)), "delta%hit")
	}
}

// BenchmarkInstrumentedIteration measures the cost of the full parameter
// acquisition (micro-benchmarks + the instrumented iteration) — the
// one-time price the runtime pays before it can search.
func BenchmarkInstrumentedIteration(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 96, 4
	app := apps.NewJacobi(cfg)
	base := dist.Block(cfg.Rows, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instrument.Collect(spec, app, base, 42, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchGBS / Genetic / Annealing / Random measure the §5.3
// search algorithms over a real model, reporting model evaluations spent.
func BenchmarkSearchGBS(b *testing.B)       { benchSearch(b, "gbs") }
func BenchmarkSearchGenetic(b *testing.B)   { benchSearch(b, "genetic") }
func BenchmarkSearchAnnealing(b *testing.B) { benchSearch(b, "annealing") }
func BenchmarkSearchRandom(b *testing.B)    { benchSearch(b, "random") }

func benchSearch(b *testing.B, alg string) {
	spec, app, model := benchSearchModel(b)
	b.ResetTimer()
	var res mheta.SearchResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = mheta.SearchWith(alg, spec, app, model, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Candidate throughput — model evaluations per wall-clock second — is
	// the figure that bounds how elaborate a runtime search can be (§5.3).
	reportSearch(b, res)
	blk := model.Predict(mheta.BlockDistribution(app, spec)).Total
	b.ReportMetric(blk/res.Time, "speedup-vs-blk")
}

// BenchmarkSearchFreshClone measures a search the way mheta-serve's
// /search runs one: each op clones the instrumented master, predicts the
// Blk baseline on the clone and searches it. Unlike benchSearch, which
// reuses one model, every op pays what a clone does not share with its
// master — its scratch and its delta evaluator. The "/workers=1" suffix
// keeps the rows' baseline IDs from when searches could fan out.
func BenchmarkSearchFreshClone(b *testing.B) {
	spec, app, master := benchSearchModel(b)
	blk := mheta.BlockDistribution(app, spec)
	for _, alg := range []string{mheta.AlgGBS, mheta.AlgGenetic} {
		b.Run(alg+"/workers=1", func(b *testing.B) {
			b.ReportAllocs()
			var res mheta.SearchResult
			var err error
			for i := 0; i < b.N; i++ {
				model := master.Clone()
				_ = model.Predict(blk)
				res, err = mheta.SearchWithOptions(alg, spec, app, model, 42, mheta.SearchOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSearch(b, res)
		})
	}
}

// benchSearchModel instruments the 8-rank HY1 Jacobi scenario the search
// benchmarks share.
func benchSearchModel(b *testing.B) (mheta.ClusterSpec, *mheta.App, *mheta.Model) {
	b.Helper()
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		b.Fatal(err)
	}
	return spec, app, model
}

// reportSearch reports the evaluations the last search spent and the
// candidate throughput over the whole run.
func reportSearch(b *testing.B, res mheta.SearchResult) {
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(res.Evaluations), "evals")
	b.ReportMetric(float64(res.Evaluations)*1e9/perOp, "cands/s")
}

// BenchmarkMemoisedEvaluate measures the memo's warm path — re-scoring a
// batch of already-seen distributions. The acceptance bar is zero
// allocs/op: a fully memoised batch touches only the hash table.
func BenchmarkMemoisedEvaluate(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		b.Fatal(err)
	}
	pts := dist.SpectrumFull(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 8)
	ds := make([]dist.Distribution, len(pts))
	for i, pt := range pts {
		ds[i] = pt.Dist
	}
	memo := search.NewMemo(search.ModelEvaluator{Model: model})
	out := make([]float64, len(ds))
	memo.EvaluateBatchInto(out, ds) // warm

	// Baseline: the seed's memo scheme — a map keyed by d.String(), which
	// allocates the key on every lookup, hit or miss.
	stringMemo := make(map[string]float64, len(ds))
	for i, d := range ds {
		stringMemo[d.String()] = out[i]
	}
	start := time.Now()
	const rounds = 64
	for r := 0; r < rounds; r++ {
		for i, d := range ds {
			out[i] = stringMemo[d.String()]
		}
	}
	baseline := float64(time.Since(start).Nanoseconds()) / rounds

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo.EvaluateBatchInto(out, ds)
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(baseline/perOp, "speedup-vs-string-memo")
	b.ReportMetric(float64(len(ds)), "dists/batch")
}

// BenchmarkMemoisedEvaluateObserved is BenchmarkMemoisedEvaluate with a
// live metrics registry attached — the enabled-instrumentation cost of
// the same warm path. CI compares the two to bound the observability
// overhead; with no registry the only cost is a nil check, pinned at
// zero allocations by TestMemoisedBatchZeroAlloc.
func BenchmarkMemoisedEvaluateObserved(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		b.Fatal(err)
	}
	pts := dist.SpectrumFull(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 8)
	ds := make([]dist.Distribution, len(pts))
	for i, pt := range pts {
		ds[i] = pt.Dist
	}
	memo := search.NewMemo(search.ModelEvaluator{Model: model})
	memo.Observe(mheta.NewMetrics())
	out := make([]float64, len(ds))
	memo.EvaluateBatchInto(out, ds) // warm

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo.EvaluateBatchInto(out, ds)
	}
	b.ReportMetric(float64(len(ds)), "dists/batch")
}

// BenchmarkMemoConcurrentBatches measures warm batch evaluation on one
// shared memo from GOMAXPROCS concurrent callers — the convoy case for a
// design that serialises whole batches behind a single scratch mutex.
// The acceptance is no throughput cliff versus the serial
// BenchmarkMemoisedEvaluate: per-call ns/op should stay in the same
// ballpark as the serial warm batch rather than multiplying by the
// caller count.
func BenchmarkMemoConcurrentBatches(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		b.Fatal(err)
	}
	pts := dist.SpectrumFull(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 8)
	ds := make([]dist.Distribution, len(pts))
	for i, pt := range pts {
		ds[i] = pt.Dist
	}
	memo := search.NewMemo(search.ModelEvaluator{Model: model})
	warm := make([]float64, len(ds))
	memo.EvaluateBatchInto(warm, ds) // every batch below is fully memoised
	b.ReportMetric(float64(len(ds)), "dists/batch")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		out := make([]float64, len(ds))
		for pb.Next() {
			memo.EvaluateBatchInto(out, ds)
		}
	})
}

// BenchmarkServePredict measures the serving path end to end: parallel
// HTTP clients POSTing /predict at a live server, each request scored on
// its own handler through the shared cross-request memo. Requests rotate over a handful of distributions, the steady
// state of a runtime system polling candidate scores. The req/s metric
// is the headline — mheta-bench holds it to an absolute floor of 1000
// via -min-metric (ns/op and allocs stay ungated: net/http allocation
// counts drift across Go releases).
func BenchmarkServePredict(b *testing.B) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	bodies := predictBodies(b)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	post := func(body []byte) error {
		resp, err := client.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(bodies[0]); err != nil { // warm: instruments the engine
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := post(bodies[i%len(bodies)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// predictBodies returns /predict bodies for eight perturbations of Blk
// on jacobi/HY1 at test scale.
func predictBodies(b *testing.B) [][]byte {
	spec := cluster.HY1(8)
	app := experiments.JacobiBuilder(false).Build(experiments.ScaleTest)
	blk := dist.Block(app.Prog.GlobalElems(), spec.N())
	bodies := make([][]byte, 8)
	for i := range bodies {
		d := blk.Clone()
		d[0] -= i
		d[len(d)-1] += i
		body, err := json.Marshal(map[string]any{
			"app": "jacobi", "config": "HY1", "scale": "test", "dist": d,
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// BenchmarkPredictHandler measures the /predict handler alone: a warm,
// memo-hit request through Server.ServeHTTP into an
// httptest.ResponseRecorder, with no TCP or client in the loop. Its
// allocs/op is gated by mheta-bench; the request and recorder set-up
// are part of every op.
func BenchmarkPredictHandler(b *testing.B) {
	srv := serve.New(serve.Config{})
	defer srv.Shutdown(context.Background())
	bodies := predictBodies(b)
	post := func(body []byte) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}
	for _, body := range bodies { // warm: instruments the engine, fills the memo
		if err := post(body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := post(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) -----------------------------------

// BenchmarkAblationNoise compares prediction error with and without
// emulation noise: with noise off, accuracy should approach 100%,
// demonstrating the error budget is measurement perturbation, not model
// structure.
func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, amp := range []float64{0, 0.02} {
			r := benchRunner()
			r.NoiseAmp = amp
			s, err := r.Sweep(cluster.HY1(8), experiments.JacobiBuilder(false), false)
			if err != nil {
				b.Fatal(err)
			}
			name := "avg%diff-noise0"
			if amp > 0 {
				name = "avg%diff-noise2"
			}
			b.ReportMetric(stats.Mean(s.Diffs())*100, name)
		}
	}
}

// BenchmarkAblationPrefetchTransform compares the Figure 5 instrumented
// prefetch (blocking issue + no-op wait) against what naive timers would
// measure (Figure 4 case 2: the wait hides the true latency), showing why
// the transform is needed: without it the extracted overlap is zero and
// the read latencies are under-measured.
func BenchmarkAblationPrefetchTransform(b *testing.B) {
	spec := cluster.IO(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 256, 4
	cfg.Prefetch = true
	app := apps.NewJacobi(cfg)
	base := dist.Block(cfg.Rows, 8)
	for i := 0; i < b.N; i++ {
		// With the transform (normal Collect path).
		params, err := instrument.Collect(spec, app, base, 42, 0.02)
		if err != nil {
			b.Fatal(err)
		}
		var overlap float64
		st := params.Sections[0].Stages[0]
		for _, ov := range st.OverlapPerElem {
			overlap += ov
		}
		b.ReportMetric(overlap/float64(len(st.OverlapPerElem))*1e9, "ns-overlap/elem")

		// Without the transform: run the instrumented iteration with the
		// disk left in normal mode — waits absorb the latency invisibly.
		w := mpi.NewWorld(spec, 42, 0.02)
		for p := 0; p < w.Size(); p++ {
			w.Rank(p).Disk().SetMode(0)
		}
		res, err := exec.Run(w, app, base, exec.Options{Mode: exec.ModeInstrument})
		if err != nil {
			b.Fatal(err)
		}
		// Naive measurement sees only the post-overlap wait remainder.
		var naiveRead int64
		for _, rec := range res.Recorders {
			for _, io := range rec.IO {
				naiveRead += io.ReadBytes
			}
		}
		b.ReportMetric(float64(naiveRead), "naive-bytes")
	}
}

// BenchmarkAblationSteadyState quantifies the two-iteration steady-state
// evaluation against the naive single-iteration makespan × N (§4.2.3
// read literally): the steady-state form halves the residual error at
// small iteration times.
func BenchmarkAblationSteadyState(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	base := dist.Block(cfg.Rows, 8)
	params, err := instrument.Collect(spec, app, base, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	model := core.MustModel(params)
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(spec, 777, 0)
		res, err := exec.Run(w, app, base, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pred := model.Predict(base)
		naive := pred.NodeTimes // first-iteration makespan
		naiveMax := 0.0
		for _, tm := range naive {
			if tm > naiveMax {
				naiveMax = tm
			}
		}
		naiveTotal := naiveMax * float64(cfg.Iterations)
		b.ReportMetric(stats.PercentDiff(pred.Total, res.Time)*100, "steady%diff")
		b.ReportMetric(stats.PercentDiff(naiveTotal, res.Time)*100, "naive%diff")
	}
}

// BenchmarkEmulatedRun measures the emulator's own throughput: one full
// Jacobi run (5 iterations, 8 ranks) including real numerics.
func BenchmarkEmulatedRun(b *testing.B) {
	spec := cluster.HY1(8)
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	base := dist.Block(cfg.Rows, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(spec, 777, 0.02)
		if _, err := exec.Run(w, app, base, exec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulate measures event-engine scaling: one nearest-neighbour
// Jacobi run (2 rows per rank, 2 iterations) at each rank count,
// reporting scheduler throughput (events/s = heap dispatches + message
// deliveries per second) and allocations. The 10k point is the ISSUE 7
// headline: goroutine-per-rank couldn't reach it in seconds; the event
// heap must.
func BenchmarkEmulate(b *testing.B) {
	for _, ranks := range []int{8, 256, 4096, 10000} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := apps.DefaultJacobiConfig()
			cfg.Rows, cfg.Cols, cfg.Iterations = 2*ranks, 4, 2
			app := apps.NewJacobi(cfg)
			spec := cluster.DC(ranks)
			for i := range spec.Nodes {
				spec.Nodes[i] = cluster.NodeSpec{CPUPower: 1, MemoryBytes: 1 << 20, DiskScale: 1}
			}
			d := dist.Block(cfg.Rows, ranks)
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st sched.Stats
				w := mpi.NewWorld(spec, 777, 0.02)
				if _, err := exec.Run(w, app, d, exec.Options{EventStats: &st}); err != nil {
					b.Fatal(err)
				}
				events += st.Events + st.Sends
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSearchStudy runs the full §5.3 four-algorithm comparison.
func BenchmarkSearchStudy(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		study, err := r.RunSearchStudy(cluster.HY2(8), experiments.JacobiBuilder(false))
		if err != nil {
			b.Fatal(err)
		}
		best := study.Baseline.Actual
		for _, row := range study.Rows {
			if row.Actual < best {
				best = row.Actual
			}
		}
		b.ReportMetric(study.Baseline.Actual/best, "speedup-vs-blk")
	}
}

var _ = search.Result{} // keep the search package linked for godoc cross-refs

// BenchmarkExtensionMultigrid sweeps the §6 future-work application
// (two-grid V-cycle) on HY1, reporting its prediction accuracy — the
// "wider range of relative communication, computation, and I/O costs"
// the paper wanted to test MHETA against.
func BenchmarkExtensionMultigrid(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		s, err := r.Sweep(cluster.HY1(8), experiments.MultigridBuilder(), false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Mean(s.Diffs())*100, "avg%diff")
	}
}

// BenchmarkAblationInterference quantifies the §3.2 dedicated-environment
// assumption: prediction error as unseen external load grows.
func BenchmarkAblationInterference(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.InterferenceStudy(cluster.HY1(8), experiments.JacobiBuilder(false), []float64{0, 0.4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgDiff*100, "avg%diff-idle")
		b.ReportMetric(rows[1].AvgDiff*100, "avg%diff-load40")
	}
}

// BenchmarkExtensionSharedDisk sweeps the global-disk extension on the IO
// configuration, reporting prediction accuracy under contention.
func BenchmarkExtensionSharedDisk(b *testing.B) {
	r := benchRunner()
	spec := cluster.IO(8).WithSharedDisk()
	for i := 0; i < b.N; i++ {
		s, err := r.Sweep(spec, experiments.JacobiBuilder(false), false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Mean(s.Diffs())*100, "avg%diff")
		b.ReportMetric(s.Ratio(), "worst/best")
	}
}
