package experiments

import (
	"math"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/stats"
)

// sweepEveryPoint is Runner.Sweep without the emulation memory: every
// spectrum point runs on its own fresh world, repeats included.
func sweepEveryPoint(t *testing.T, r *Runner, spec cluster.Spec, ab AppBuilder, fullWalk bool) []Point {
	t.Helper()
	app := ab.Build(r.Scale)
	total := app.Prog.GlobalElems()
	params, err := instrument.Collect(spec, app, dist.Block(total, spec.N()), r.Seed, r.NoiseAmp)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(params)
	if err != nil {
		t.Fatal(err)
	}
	pts := dist.Spectrum(total, spec, bytesPerElem(app), r.steps())
	if fullWalk {
		pts = dist.SpectrumFull(total, spec, bytesPerElem(app), r.steps())
	}
	var out []Point
	for _, pt := range pts {
		w := mpi.NewWorld(spec, r.Seed^0xACDC, r.NoiseAmp)
		run, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pred := model.Predict(pt.Dist).Total
		out = append(out, Point{Dist: pt.Dist, Actual: run.Time, Predicted: pred, Diff: stats.PercentDiff(pred, run.Time)})
	}
	return out
}

// TestSweepEmulatesEachDistributionOnce pins Sweep's reuse of an earlier
// point's emulation against the per-point loop, bit for bit, over the
// benchmark's five (architecture, application) pairs and one Figure 9
// full walk, and checks the reuse really happens.
func TestSweepEmulatesEachDistributionOnce(t *testing.T) {
	r := DefaultRunner(ScaleTest)
	cases := []struct {
		spec     cluster.Spec
		ab       AppBuilder
		fullWalk bool
	}{
		{cluster.DC(8), JacobiBuilder(false), false},
		{cluster.IO(8), JacobiBuilder(true), false},
		{cluster.HY1(8), RNABuilder(), false},
		{cluster.HY2(8), CGBuilder(), false},
		{cluster.HY2(8), LanczosBuilder(), false},
		{cluster.HY1(8), JacobiBuilder(false), true},
	}
	repeats := 0
	for _, c := range cases {
		got, err := r.Sweep(c.spec, c.ab, c.fullWalk)
		if err != nil {
			t.Fatal(err)
		}
		want := sweepEveryPoint(t, r, c.spec, c.ab, c.fullWalk)
		if len(got.Points) != len(want) {
			t.Fatalf("%s/%s: %d points, want %d", c.spec.Name, c.ab.Name, len(got.Points), len(want))
		}
		for k, w := range want {
			g := got.Points[k]
			if !g.Dist.Equal(w.Dist) ||
				math.Float64bits(g.Actual) != math.Float64bits(w.Actual) ||
				math.Float64bits(g.Predicted) != math.Float64bits(w.Predicted) ||
				math.Float64bits(g.Diff) != math.Float64bits(w.Diff) {
				t.Fatalf("%s/%s point %d: got %v actual %v predicted %v diff %v; want %v %v %v %v",
					c.spec.Name, c.ab.Name, k, g.Dist, g.Actual, g.Predicted, g.Diff, w.Dist, w.Actual, w.Predicted, w.Diff)
			}
			for _, prev := range want[:k] {
				if prev.Dist.Equal(w.Dist) {
					repeats++
					break
				}
			}
		}
	}
	if repeats == 0 {
		t.Fatal("no sweep revisits a distribution; the test no longer covers reuse")
	}
}
