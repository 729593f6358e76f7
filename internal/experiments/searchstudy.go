package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/instrument"
	"mheta/internal/search"
	"mheta/internal/stats"
)

// SearchRow is one algorithm's outcome in the search study.
type SearchRow struct {
	Algorithm   string
	Predicted   float64 // model time of the found distribution
	Actual      float64 // emulated time of the found distribution
	Evaluations int
	Dist        dist.Distribution
}

// SearchStudy reproduces the companion-paper comparison (§5.3): run the
// four search algorithms over MHETA for one application on one
// configuration, then verify each algorithm's choice with an actual
// emulated run, alongside the Blk baseline.
type SearchStudy struct {
	Config, App string
	Baseline    SearchRow // Blk
	Rows        []SearchRow
}

// RunSearchStudy executes the study for app on spec.
func (r *Runner) RunSearchStudy(spec cluster.Spec, ab AppBuilder) (SearchStudy, error) {
	app := ab.Build(r.Scale)
	total := app.Prog.GlobalElems()
	bpe := bytesPerElem(app)

	base := dist.Block(total, spec.N())
	params, err := instrument.Collect(spec, app, base, r.Seed, r.NoiseAmp)
	if err != nil {
		return SearchStudy{}, err
	}
	model, err := core.NewModel(params)
	if err != nil {
		return SearchStudy{}, err
	}
	ev := search.ModelEvaluator{Model: model}

	study := SearchStudy{Config: spec.Name, App: ab.Name}
	em := r.emulation(spec, app)

	at, err := em.time(base)
	if err != nil {
		return SearchStudy{}, err
	}
	study.Baseline = SearchRow{Algorithm: "blk-baseline", Predicted: model.Predict(base).Total, Actual: at, Dist: base}

	searchers := []search.Searcher{
		&search.GBS{Spec: spec, BytesPerElem: bpe, Obs: r.Obs},
		&search.Genetic{N: spec.N(), Seed: r.Seed, Obs: r.Obs},
		&search.Annealing{N: spec.N(), Seed: r.Seed, Obs: r.Obs},
		&search.Random{N: spec.N(), Seed: r.Seed, Obs: r.Obs},
	}
	for _, s := range searchers {
		res := s.Search(ev, total)
		at, err := em.time(res.Best)
		if err != nil {
			return SearchStudy{}, err
		}
		study.Rows = append(study.Rows, SearchRow{
			Algorithm:   res.Algorithm,
			Predicted:   res.Time,
			Actual:      at,
			Evaluations: res.Evaluations,
			Dist:        res.Best,
		})
	}
	return study, nil
}

// RenderSearchStudy renders the comparison table.
func RenderSearchStudy(s SearchStudy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Search study: %s on %s\n", s.App, s.Config)
	fmt.Fprintf(&b, "  %-14s %10s %10s %8s  %s\n", "algorithm", "pred(s)", "actual(s)", "evals", "distribution")
	row := func(r SearchRow) {
		fmt.Fprintf(&b, "  %-14s %10.3f %10.3f %8d  %v\n", r.Algorithm, r.Predicted, r.Actual, r.Evaluations, r.Dist)
	}
	row(s.Baseline)
	for _, r := range s.Rows {
		row(r)
	}
	return b.String()
}

// ModelLatency measures the wall-clock cost of one MHETA evaluation — the
// paper reports "about 5.4 ms per distribution" on 2005 hardware and uses
// it to argue the model can run "on the fly". The measurement uses a real
// parameter set (Jacobi on HY1 at the runner's scale).
func (r *Runner) ModelLatency() (time.Duration, error) {
	spec := cluster.HY1(8)
	ab := JacobiBuilder(false)
	app := ab.Build(r.Scale)
	total := app.Prog.GlobalElems()
	params, err := instrument.Collect(spec, app, dist.Block(total, spec.N()), r.Seed, r.NoiseAmp)
	if err != nil {
		return 0, err
	}
	model, err := core.NewModel(params)
	if err != nil {
		return 0, err
	}
	pts := dist.SpectrumFull(total, spec, bytesPerElem(app), 8)
	const rounds = 64
	//lint:ignore nondeterminism ModelLatency's output IS a wall-clock measurement (the paper's ~5.4ms/evaluation claim); it feeds no prediction and no golden file.
	start := time.Now()
	n := 0
	for i := 0; i < rounds; i++ {
		for _, pt := range pts {
			_ = model.Predict(pt.Dist)
			n++
		}
	}
	//lint:ignore nondeterminism same wall-clock measurement as above.
	return time.Since(start) / time.Duration(n), nil
}

// RenderAccuracy renders the accuracy headline. Rows are emitted in
// sorted application order: ranging PerApp directly would render the
// table in Go's randomized map order, a fresh instance of the exact bug
// class the maporder analyzer exists to stop.
func RenderAccuracy(a Accuracy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Accuracy (percent difference, lower is better):\n")
	apps := make([]string, 0, len(a.PerApp))
	for app := range a.PerApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		d := a.PerApp[app]
		fmt.Fprintf(&b, "  %-10s avg %.2f%% (accuracy %.1f%%)\n", app, d*100, stats.Accuracy(d)*100)
	}
	fmt.Fprintf(&b, "  %-10s avg %.2f%% (accuracy %.1f%%)\n", "OVERALL", a.Overall*100, stats.Accuracy(a.Overall)*100)
	return b.String()
}

// RenderRatios renders the best/worst-distribution spread.
func RenderRatios(rows []RatioRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Worst-vs-best distribution execution-time ratios:\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-5s %-10s %.2fx\n", r.Config, r.App, r.Ratio)
	}
	return b.String()
}
