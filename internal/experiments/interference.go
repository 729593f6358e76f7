package experiments

import (
	"fmt"
	"strings"

	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/stats"
)

// InterferenceRow is one point of the dedicated-environment robustness
// study: prediction accuracy when external load of the given amplitude
// runs on the cluster. Amplitude a means compute on each node is
// periodically inflated by up to a (e.g. 0.3 → up to 30% slower), with
// uncorrelated phases across nodes — load MHETA never observes, because
// the paper "assume[s] a dedicated computing environment" (§3.2).
type InterferenceRow struct {
	Amplitude float64
	// AvgDiff / MaxDiff are the percent differences across the spectrum.
	AvgDiff, MaxDiff float64
}

// InterferenceStudy sweeps external-load amplitudes for one application
// on one configuration and reports how MHETA's accuracy degrades — the
// quantitative version of why the paper's dedicated-environment
// assumption matters, and what a future multiprogrammed extension must
// model.
func (r *Runner) InterferenceStudy(spec cluster.Spec, ab AppBuilder, amps []float64) ([]InterferenceRow, error) {
	app := ab.Build(r.Scale)
	total := app.Prog.GlobalElems()
	bpe := bytesPerElem(app)
	base := dist.Block(total, spec.N())

	// The instrumented iteration runs on the *idle* cluster: the paper's
	// parameters are collected in a dedicated window.
	params, err := instrument.Collect(spec, app, base, r.Seed, r.NoiseAmp)
	if err != nil {
		return nil, err
	}
	model, err := core.NewModel(params)
	if err != nil {
		return nil, err
	}

	var rows []InterferenceRow
	for _, amp := range amps {
		em := r.emulation(spec, app)
		em.prepare = func(w *mpi.World) {
			for p := 0; p < w.Size(); p++ {
				w.Rank(p).SetInterference(amp, 0.25)
			}
		}
		var diffs []float64
		for _, pt := range dist.Spectrum(total, spec, bpe, r.steps()) {
			actual, err := em.time(pt.Dist)
			if err != nil {
				return nil, err
			}
			diffs = append(diffs, stats.PercentDiff(model.Predict(pt.Dist).Total, actual))
		}
		s := stats.Summarize(diffs)
		rows = append(rows, InterferenceRow{Amplitude: amp, AvgDiff: s.Avg, MaxDiff: s.Max})
	}
	return rows, nil
}

// RenderInterference renders the study.
func RenderInterference(app, config string, rows []InterferenceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dedicated-environment robustness: %s on %s (external load unseen by MHETA)\n", app, config)
	fmt.Fprintf(&b, "  %-10s %10s %10s\n", "load amp", "avg diff%", "max diff%")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10.2f %10.2f %10.2f\n", r.Amplitude, r.AvgDiff*100, r.MaxDiff*100)
	}
	return b.String()
}
