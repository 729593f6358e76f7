package experiments

import (
	"fmt"
	"sync"

	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/obs"
	"mheta/internal/stats"
)

// Runner carries the sweep configuration shared by every experiment.
type Runner struct {
	Scale Scale
	// Seed drives all noise streams; the instrumented run and the
	// measured runs use derived, distinct streams.
	Seed uint64
	// NoiseAmp is the perturbation amplitude of the emulated runs
	// (default 0.02; 0 gives the noise-free ablation).
	NoiseAmp float64
	// StepsPerLeg controls spectrum resolution (default 3, i.e. two
	// interior points per leg — comparable to the paper's plots).
	StepsPerLeg int
	// Workers fans independent (architecture, application) sweeps out
	// over this many goroutines; <= 1 runs serially. Every sweep is
	// seeded independently, so results are identical for any worker
	// count. Searches always run serially: one evaluation costs far less
	// than a goroutine handoff.
	Workers int
	// Obs, when non-nil, receives the search study's observability:
	// per-algorithm convergence series and memo hit/miss counters.
	// Observation only — rendered tables and golden outputs are
	// bit-identical with or without it.
	Obs *obs.Registry
}

// DefaultRunner returns the standard configuration at the given scale.
func DefaultRunner(s Scale) *Runner {
	return &Runner{Scale: s, Seed: 0x8E7A, NoiseAmp: 0.02, StepsPerLeg: 3}
}

func (r *Runner) steps() int {
	if r.StepsPerLeg < 1 {
		return 3
	}
	return r.StepsPerLeg
}

func (r *Runner) workers() int {
	if r.Workers < 1 {
		return 1
	}
	return r.Workers
}

// fanOut runs job(0..n-1) on the runner's workers, each job exactly once,
// and returns the lowest-indexed error (so failures are deterministic
// regardless of scheduling). Jobs must write their results into
// caller-owned slots indexed by job number.
func (r *Runner) fanOut(n int, job func(int) error) error {
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		//mheta:lifecycle waitgroup
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += w {
				errs[i] = job(i)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Point is one measured spectrum position.
type Point struct {
	Label     string // anchor label at anchors, "" between
	Leg       int
	T         float64
	Dist      dist.Distribution
	Actual    float64 // emulated execution time, seconds
	Predicted float64 // MHETA prediction, seconds
	Diff      float64 // |p−a|/min(p,a), the paper's §5.2.1 metric
}

// XLabel renders the point's x-axis position for reports.
func (p Point) XLabel() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("leg%d+%.2f", p.Leg, p.T)
}

// SweepResult is one (architecture, application) spectrum sweep.
type SweepResult struct {
	Config string
	App    string
	Points []Point
}

// BestActual returns the index of the point with the lowest actual time
// (the solid circle in Figures 10/11).
func (s SweepResult) BestActual() int {
	best, bt := 0, s.Points[0].Actual
	for i, p := range s.Points {
		if p.Actual < bt {
			best, bt = i, p.Actual
		}
	}
	return best
}

// BestPredicted returns the index with the lowest predicted time (the
// dashed circle when it disagrees with BestActual).
func (s SweepResult) BestPredicted() int {
	best, bt := 0, s.Points[0].Predicted
	for i, p := range s.Points {
		if p.Predicted < bt {
			best, bt = i, p.Predicted
		}
	}
	return best
}

// Diffs returns the percent differences across the sweep.
func (s SweepResult) Diffs() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Diff
	}
	return out
}

// Ratio returns worst/best actual execution time across the sweep — the
// price of choosing the wrong distribution (§5.3).
func (s SweepResult) Ratio() float64 {
	xs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = p.Actual
	}
	return stats.Ratio(xs)
}

// bytesPerElem sums the distributed variables' element footprints (the
// I-C anchor's input).
func bytesPerElem(app *exec.App) int64 {
	var b int64
	for _, v := range app.Prog.DistributedVars() {
		b += v.ElemBytes
	}
	return b
}

// Sweep instruments app once under Blk on the given architecture, then
// walks the distribution spectrum comparing MHETA's predictions against
// actual emulated executions. fullWalk forces the five-anchor axis
// (Figure 9 aggregation); otherwise the walk collapses per §5.1 on
// degenerate architectures (Figures 10/11).
func (r *Runner) Sweep(spec cluster.Spec, ab AppBuilder, fullWalk bool) (SweepResult, error) {
	app := ab.Build(r.Scale)
	total := app.Prog.GlobalElems()
	bpe := bytesPerElem(app)

	base := dist.Block(total, spec.N())
	params, err := instrument.Collect(spec, app, base, r.Seed, r.NoiseAmp)
	if err != nil {
		return SweepResult{}, fmt.Errorf("experiments: %s/%s: %w", spec.Name, ab.Name, err)
	}
	model, err := core.NewModel(params)
	if err != nil {
		return SweepResult{}, fmt.Errorf("experiments: %s/%s: %w", spec.Name, ab.Name, err)
	}

	var pts []dist.SpectrumPoint
	if fullWalk {
		pts = dist.SpectrumFull(total, spec, bpe, r.steps())
	} else {
		pts = dist.Spectrum(total, spec, bpe, r.steps())
	}

	res := SweepResult{Config: spec.Name, App: ab.Name}
	em := r.emulation(spec, app)
	for _, pt := range pts {
		actual, err := em.time(pt.Dist)
		if err != nil {
			return SweepResult{}, fmt.Errorf("experiments: %s/%s at %v: %w", spec.Name, ab.Name, pt.Dist, err)
		}
		pred := model.Predict(pt.Dist)
		res.Points = append(res.Points, Point{
			Label:     pt.Label,
			Leg:       pt.Leg,
			T:         pt.T,
			Dist:      pt.Dist,
			Actual:    actual,
			Predicted: pred.Total,
			Diff:      stats.PercentDiff(pred.Total, actual),
		})
	}
	return res, nil
}

// emulation runs one application on fresh, identically seeded worlds of
// one cluster, so an emulated time is a pure function of the
// distribution. It remembers the distributions it has run for the life
// of one experiment call: a spectrum that revisits a distribution (a
// collapsed leg, an anchor two walks share) emulates it once.
type emulation struct {
	spec  cluster.Spec
	app   *exec.App
	seed  uint64
	noise float64
	// prepare, when non-nil, adjusts each fresh world before its run.
	prepare func(*mpi.World)
	// dists[i] ran in times[i] seconds. A call emulates a few dozen
	// distributions at most, so the lookup is a linear scan.
	dists []dist.Distribution
	times []float64
}

// emulation starts the runner's emulations of app on spec.
func (r *Runner) emulation(spec cluster.Spec, app *exec.App) *emulation {
	return &emulation{spec: spec, app: app, seed: r.Seed ^ 0xACDC, noise: r.NoiseAmp}
}

// time returns d's emulated execution time, running d only if this
// emulation has not run it before.
func (e *emulation) time(d dist.Distribution) (float64, error) {
	for i, seen := range e.dists {
		if seen.Equal(d) {
			return e.times[i], nil
		}
	}
	w := mpi.NewWorld(e.spec, e.seed, e.noise)
	if e.prepare != nil {
		e.prepare(w)
	}
	run, err := exec.Run(w, e.app, d, exec.Options{Recycle: true})
	if err != nil {
		return 0, err
	}
	e.dists = append(e.dists, d)
	e.times = append(e.times, run.Time)
	return run.Time, nil
}
