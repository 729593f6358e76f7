// Package internal_test holds cross-package integration tests: the full
// paper pipeline — micro-benchmarks, instrumented iteration, model
// compilation, actual emulated runs — exercised end to end for every
// application on every Table 1 configuration, asserting the paper's
// headline claims at test scale.
package internal_test

import (
	"testing"

	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/program"
	"mheta/internal/stats"
)

// pipeline runs collect→predict→actual over a spectrum and returns the
// percent differences.
func pipeline(t *testing.T, name string, app *exec.App, spec cluster.Spec, maxDiff float64) []float64 {
	t.Helper()
	total := app.Prog.GlobalElems()
	var bpe int64
	for _, v := range app.Prog.DistributedVars() {
		bpe += v.ElemBytes
	}
	base := dist.Block(total, spec.N())
	params, err := instrument.Collect(spec, app, base, 42, 0.02)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	model := core.MustModel(params)
	var diffs []float64
	for _, pt := range dist.Spectrum(total, spec, bpe, 2) {
		w := mpi.NewWorld(spec, 777, 0.02)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		pred := model.Predict(pt.Dist)
		diff := stats.PercentDiff(pred.Total, res.Time)
		t.Logf("%-12s %-5s %-8s actual=%.4fs predicted=%.4fs diff=%.2f%%",
			name, spec.Name, pt.Label, res.Time, pred.Total, diff*100)
		if diff > maxDiff {
			t.Errorf("%s on %s: prediction off by %.1f%% for %v", name, spec.Name, diff*100, pt.Dist)
		}
		diffs = append(diffs, diff)
	}
	return diffs
}

func TestJacobiAllConfigs(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	var all []float64
	for _, spec := range cluster.NamedAll() {
		all = append(all, pipeline(t, "jacobi", apps.NewJacobi(cfg), spec, 0.15)...)
	}
	if avg := stats.Mean(all); avg > 0.05 {
		t.Errorf("Jacobi average diff %.2f%%, want ≤5%%", avg*100)
	}
}

func TestJacobiPrefetchAllIOConfigs(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	cfg.Prefetch = true
	var all []float64
	for _, name := range []string{"IO", "HY1", "HY2"} {
		spec, _ := cluster.Named(name)
		all = append(all, pipeline(t, "jacobi-pf", apps.NewJacobi(cfg), spec, 0.15)...)
	}
	// The paper reports ≈98% accuracy for prefetching Jacobi; at test
	// scale we require ≥95% on average.
	if avg := stats.Mean(all); avg > 0.05 {
		t.Errorf("prefetch Jacobi average diff %.2f%%", avg*100)
	}
}

func TestCGAllConfigs(t *testing.T) {
	cfg := apps.DefaultCGConfig()
	cfg.N, cfg.Iterations = 2048, 3
	for _, spec := range cluster.NamedAll() {
		// CG is the paper's worst case (§5.4 sparse limitation): allow
		// up to 25% at single points, as Figure 9's MAX line does.
		pipeline(t, "cg", apps.NewCG(cfg), spec, 0.25)
	}
}

func TestRNAAllConfigs(t *testing.T) {
	cfg := apps.DefaultRNAConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 256, 3
	var all []float64
	for _, spec := range cluster.NamedAll() {
		all = append(all, pipeline(t, "rna", apps.NewRNA(cfg), spec, 0.15)...)
	}
	// RNA is the paper's best case.
	if avg := stats.Mean(all); avg > 0.04 {
		t.Errorf("RNA average diff %.2f%%", avg*100)
	}
}

func TestLanczosAllConfigs(t *testing.T) {
	cfg := apps.DefaultLanczosConfig()
	cfg.N, cfg.Iterations = 512, 3
	for _, spec := range cluster.NamedAll() {
		pipeline(t, "lanczos", apps.NewLanczos(cfg), spec, 0.15)
	}
}

func TestNoiseFreeAblationNearPerfect(t *testing.T) {
	// DESIGN.md ablation 1: with perturbation off, instrumented
	// measurements are exact, and the only residual errors are the
	// in-core heuristic and cache/sparsity effects. Jacobi (uniform,
	// single variable) must then predict essentially perfectly.
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	spec := cluster.HY1(8)
	base := dist.Block(cfg.Rows, 8)
	params, err := instrument.Collect(spec, app, base, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := core.MustModel(params)
	for _, pt := range dist.Spectrum(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 2) {
		w := mpi.NewWorld(spec, 777, 0)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		diff := stats.PercentDiff(model.Predict(pt.Dist).Total, res.Time)
		if diff > 0.02 {
			t.Errorf("noise-free diff %.3f%% at %v", diff*100, pt.Dist)
		}
	}
}

func TestBestWorstSpreadIsLarge(t *testing.T) {
	// §5.3: the worst distribution can be ~4× the best (RNA on DC).
	cfg := apps.DefaultRNAConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 256, 3
	app := apps.NewRNA(cfg)
	spec := cluster.DC(8)
	var times []float64
	for _, pt := range dist.Spectrum(cfg.Rows, spec, app.Prog.MustVar("T").ElemBytes, 3) {
		w := mpi.NewWorld(spec, 777, 0.02)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.Time)
	}
	// Add a deliberately bad distribution (everything on the slowest
	// node) to probe the spread the paper quotes.
	bad := make(dist.Distribution, 8)
	bad[0] = cfg.Rows
	w := mpi.NewWorld(spec, 777, 0.02)
	res, err := exec.Run(w, app, bad, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	times = append(times, res.Time)
	if r := stats.Ratio(times); r < 2 {
		t.Errorf("best/worst spread only %.2f×; distribution choice should matter more", r)
	}
}

func TestModelPrefersTheActuallyBetterDistribution(t *testing.T) {
	// The point of MHETA: ranking candidate distributions correctly.
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 5
	app := apps.NewJacobi(cfg)
	spec := cluster.HY1(8)
	base := dist.Block(cfg.Rows, 8)
	params, err := instrument.Collect(spec, app, base, 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	model := core.MustModel(params)
	pts := dist.Spectrum(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 3)
	bestActual, bestPredicted := -1, -1
	var bestActualT, bestPredictedT float64
	actuals := make([]float64, len(pts))
	for i, pt := range pts {
		w := mpi.NewWorld(spec, 777, 0.02)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		actuals[i] = res.Time
		if bestActual == -1 || res.Time < bestActualT {
			bestActual, bestActualT = i, res.Time
		}
		if p := model.Predict(pt.Dist).Total; bestPredicted == -1 || p < bestPredictedT {
			bestPredicted, bestPredictedT = i, p
		}
	}
	// The model's pick must be within 5% of the true best actual time
	// (it may pick a neighbouring point, as in the paper's dashed
	// circles, but not a bad one).
	if actuals[bestPredicted] > bestActualT*1.05 {
		t.Errorf("model picked point %d (%.3fs), true best is %d (%.3fs)",
			bestPredicted, actuals[bestPredicted], bestActual, bestActualT)
	}
}

func TestMultigridAllConfigs(t *testing.T) {
	// The §6 extension: a five-section, communication-heavy V-cycle.
	// Coarse-grid work only touches even rows, so per-row cost is
	// nonuniform like CG's — allow the same relaxed per-point bound.
	cfg := apps.DefaultMGConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 3
	for _, spec := range cluster.NamedAll() {
		pipeline(t, "multigrid", apps.NewMultigrid(cfg), spec, 0.25)
	}
}

func TestReductionModelMatchesEmulatorExactly(t *testing.T) {
	// The model's binomial-tree recurrence (core.reduceTree) must mirror
	// the runtime's Allreduce byte-for-byte in virtual time: with noise
	// off and per-node compute skews, predicted and actual post-reduction
	// times must agree to floating-point precision.
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8} {
		spec := cluster.DC(8)
		spec.Nodes = spec.Nodes[:n]
		for i := range spec.Nodes {
			spec.Nodes[i] = cluster.NodeSpec{CPUPower: 1, MemoryBytes: 8 << 20, DiskScale: 1}
		}
		w := mpi.NewWorld(spec, 1, 0)
		skews := make([]float64, n)
		for i := range skews {
			skews[i] = float64((i*7)%5) * 0.01 // deterministic uneven entry times
		}
		payload := int64(64)
		sms := make([]*mpi.AllreduceSM, n)
		if _, err := w.Run(func(r *mpi.Rank) bool {
			p := r.Rank()
			if sms[p] == nil {
				r.Compute(skews[p], 1)
				sms[p] = &mpi.AllreduceSM{Tag: 3, Op: mpi.OpSum, Vals: make([]float64, payload/8)}
			}
			return sms[p].Step(r)
		}); err != nil {
			t.Fatal(err)
		}

		// Build a one-section reduction model with compute rates equal to
		// the skews (1 element per node).
		p := core.Params{
			Program: "redcheck", Nodes: n, Iterations: 1,
			MemoryBytes: make([]int64, n),
			Disk:        make([]core.DiskCal, n),
			Net: core.NetParams{
				SendFixed: float64(spec.Net.SendOverhead), SendPerByte: float64(spec.Net.PerByteSend),
				RecvFixed: float64(spec.Net.RecvOverhead), RecvPerByte: float64(spec.Net.PerByteRecv),
				WireFixed: float64(spec.Net.Latency), WirePerByte: float64(spec.Net.PerByteWire),
			},
			BaseDist: make([]int, n),
			Sections: []core.SectionParams{{
				Name: "red", Tiles: 1, Comm: program.CommReduction, ReduceBytes: payload,
				Stages: []core.StageParams{{Name: "s", ComputePerElem: skews}},
			}},
		}
		for i := 0; i < n; i++ {
			p.MemoryBytes[i] = 8 << 20
			p.BaseDist[i] = 1
		}
		model := core.MustModel(p)
		d := make([]int, n)
		for i := range d {
			d[i] = 1
		}
		pred := model.PredictDetailed(d)
		for i := 0; i < n; i++ {
			got := pred.SectionTimes[0][i]
			want := float64(w.Rank(i).Now())
			if diff := got - want; diff < -1e-12 || diff > 1e-12 {
				t.Fatalf("n=%d rank %d: model %.12f vs emulator %.12f", n, i, got, want)
			}
		}
	}
}

func TestNonuniformIterationsEndToEnd(t *testing.T) {
	// §3.1's optional case: an adaptive Jacobi whose computation decays
	// geometrically as it converges. The instrumented iteration is the
	// heaviest (index 0); MHETA rescales every later iteration.
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 6
	cfg.IterWeights = []float64{1, 0.8, 0.64, 0.51, 0.41, 0.33}
	app := apps.NewJacobi(cfg)
	spec := cluster.HY1(8)
	base := dist.Block(cfg.Rows, 8)
	params, err := instrument.Collect(spec, app, base, 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	model := core.MustModel(params)

	// Uniform-model control: predicting with uniform weights must
	// overestimate a decaying workload substantially.
	uniParams := params
	uniParams.IterWeights = nil
	uniModel := core.MustModel(uniParams)

	for _, pt := range dist.Spectrum(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 2) {
		w := mpi.NewWorld(spec, 777, 0.02)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		diff := stats.PercentDiff(model.Predict(pt.Dist).Total, res.Time)
		if diff > 0.06 {
			t.Errorf("weighted model diff %.2f%% at %v", diff*100, pt.Dist)
		}
		uniDiff := stats.PercentDiff(uniModel.Predict(pt.Dist).Total, res.Time)
		if uniDiff < diff {
			t.Errorf("uniform model (%.2f%%) beat the weighted model (%.2f%%) at %v",
				uniDiff*100, diff*100, pt.Dist)
		}
	}
}

func TestSharedDiskEndToEnd(t *testing.T) {
	// §3.2 extension: a global disk shared by all processors. The model
	// scales every I/O term by the number of concurrently streaming
	// nodes; the emulator implements the same fair-sharing semantics, so
	// accuracy should match the private-disk case up to the usual noise
	// and heuristic divergences.
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 3072, 512, 3 // out of core on the 1 MiB nodes
	app := apps.NewJacobi(cfg)
	spec := cluster.IO(8).WithSharedDisk()
	base := dist.Block(cfg.Rows, 8)
	params, err := instrument.Collect(spec, app, base, 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !params.SharedDisk {
		t.Fatal("SharedDisk flag not extracted")
	}
	model := core.MustModel(params)
	for _, pt := range dist.Spectrum(cfg.Rows, spec, app.Prog.MustVar("B").ElemBytes, 2) {
		w := mpi.NewWorld(spec, 777, 0.02)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		diff := stats.PercentDiff(model.Predict(pt.Dist).Total, res.Time)
		t.Logf("shared-disk %-8s actual=%.4fs predicted=%.4fs diff=%.2f%%",
			pt.Label, res.Time, model.Predict(pt.Dist).Total, diff*100)
		if diff > 0.15 {
			t.Errorf("shared-disk diff %.2f%% at %v", diff*100, pt.Dist)
		}
	}
}

func TestSharedDiskChangesBestDistribution(t *testing.T) {
	// With a global disk, spreading out-of-core work across more nodes
	// stops paying: the disk is the bottleneck regardless. The shared
	// configuration must make out-of-core-heavy spectra slower overall.
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 3072, 512, 3 // out of core on the 1 MiB nodes
	app := apps.NewJacobi(cfg)
	base := dist.Block(cfg.Rows, 8)

	private := cluster.IO(8)
	shared := private.WithSharedDisk()
	wP := mpi.NewWorld(private, 777, 0.02)
	resP, err := exec.Run(wP, app, base, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wS := mpi.NewWorld(shared, 777, 0.02)
	resS, err := exec.Run(wS, app, base, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resS.Time <= resP.Time {
		t.Fatalf("shared disk (%v) not slower than private (%v) for OOC Blk", resS.Time, resP.Time)
	}
}

func TestRNAPrefetchPipelined(t *testing.T) {
	// Prefetching inside a pipelined section: Equation 2's I/O term per
	// tile composed with Equation 4's per-tile waits. Exercised out of
	// core on the IO configuration.
	cfg := apps.DefaultRNAConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 3072, 512, 3
	cfg.Prefetch = true
	app := apps.NewRNA(cfg)
	spec := cluster.IO(8)
	base := dist.Block(cfg.Rows, 8)
	params, err := instrument.Collect(spec, app, base, 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	model := core.MustModel(params)
	for _, pt := range dist.Spectrum(cfg.Rows, spec, app.Prog.MustVar("T").ElemBytes, 2) {
		w := mpi.NewWorld(spec, 777, 0.02)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		diff := stats.PercentDiff(model.Predict(pt.Dist).Total, res.Time)
		t.Logf("rna-pf %-8s actual=%.4fs predicted=%.4fs diff=%.2f%%",
			pt.Label, res.Time, model.Predict(pt.Dist).Total, diff*100)
		if diff > 0.15 {
			t.Errorf("rna-pf diff %.2f%% at %v", diff*100, pt.Dist)
		}
	}

	// Numerics unchanged by prefetching even in the tiled path.
	d := dist.Block(cfg.Rows, 8)
	cfgSync := cfg
	cfgSync.Prefetch = false
	wS := mpi.NewWorld(spec, 1, 0)
	if _, err := exec.Run(wS, apps.NewRNA(cfgSync), d, exec.Options{}); err != nil {
		t.Fatal(err)
	}
	wP := mpi.NewWorld(spec, 1, 0)
	if _, err := exec.Run(wP, apps.NewRNA(cfg), d, exec.Options{}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		a := wS.Rank(p).Disk().Extent("T")
		b := wP.Rank(p).Disk().Extent("T")
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank %d: tiled prefetch changed results at byte %d", p, i)
			}
		}
	}
}

func TestRandomArchitecturesStayAccurate(t *testing.T) {
	// Property-style robustness: on randomly generated heterogeneous
	// architectures (CPU power, memory and disk speed all varied), the
	// model must stay within the paper's error envelope for the uniform
	// applications.
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 128, 4
	app := apps.NewJacobi(cfg)
	for seed := uint64(1); seed <= 5; seed++ {
		spec := randomSpec(seed)
		base := dist.Block(cfg.Rows, spec.N())
		params, err := instrument.Collect(spec, app, base, seed, 0.02)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		model := core.MustModel(params)
		var bpe int64
		for _, v := range app.Prog.DistributedVars() {
			bpe += v.ElemBytes
		}
		for _, pt := range dist.Spectrum(cfg.Rows, spec, bpe, 2) {
			w := mpi.NewWorld(spec, seed^0xACDC, 0.02)
			res, err := exec.Run(w, app, pt.Dist, exec.Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			diff := stats.PercentDiff(model.Predict(pt.Dist).Total, res.Time)
			if diff > 0.15 {
				t.Errorf("seed %d: diff %.1f%% on %s at %v", seed, diff*100, spec.Name, pt.Dist)
			}
		}
	}
}

// randomSpec generates a deterministic pseudo-random 8-node architecture:
// power 0.4–2.4, memory 512 KiB–8.5 MiB, disk ×0.5–×4.
func randomSpec(seed uint64) cluster.Spec {
	spec := cluster.DC(8)
	spec.Name = "RAND"
	nz := seed*0x9E3779B97F4A7C15 + 0x1234
	next := func() float64 {
		nz ^= nz << 13
		nz ^= nz >> 7
		nz ^= nz << 17
		return float64(nz%1000) / 1000
	}
	for i := range spec.Nodes {
		spec.Nodes[i] = cluster.NodeSpec{
			CPUPower:    0.4 + 2*next(),
			MemoryBytes: int64(512<<10) + int64(next()*float64(8<<20)),
			DiskScale:   0.5 + 3.5*next(),
		}
	}
	return spec
}

// flatState is a synthetic application kernel with no cache effects and
// perfectly uniform work, used to prove the model and the emulator agree
// exactly when nothing the model cannot see is in play.
type flatState struct{ cols int }

func (s *flatState) Init(nc *exec.NodeCtx) {
	if nc.Count > 0 {
		nc.R.Disk().Store("V", make([]byte, nc.Count*s.cols*8))
	}
}
func (s *flatState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	return float64(nRows * s.cols)
}
func (s *flatState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	return make([]byte, s.cols*8)
}
func (s *flatState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {}
func (s *flatState) ReduceVal(nc *exec.NodeCtx, sec int) []float64                { return []float64{1} }
func (s *flatState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64)           {}

func TestModelMatchesEmulatorExactlyOnFlatApp(t *testing.T) {
	// Every communication pattern, out-of-core I/O on half the nodes,
	// zero noise, no cache effect, uniform work: predicted and actual
	// must agree almost exactly on every spectrum point, pinning the full
	// Equation 1/3/4/5 + reduction pipeline rather than averages. The
	// permitted residual (≤0.05%) is the cold-start skew of the harness's
	// alignment barrier, which the model — like the paper's — does not
	// represent.
	const rows, cols = 1024, 128
	prog := &program.Program{
		Name: "flat",
		Variables: []program.Variable{
			{Name: "V", ElemBytes: cols * 8, Elems: rows, Distributed: true},
		},
		Sections: []program.Section{
			{Name: "nn", Tiles: 1, Comm: program.CommNearestNeighbor,
				MsgBytesPerNeighbor: cols * 8,
				Stages: []program.Stage{{Name: "s", WorkPerElem: cols,
					Uses: []program.VarRef{{Name: "V", Write: true}}}}},
			{Name: "pipe", Tiles: 4, Comm: program.CommPipeline,
				MsgBytesPerNeighbor: cols * 2,
				Stages: []program.Stage{{Name: "p", WorkPerElem: cols,
					Uses: []program.VarRef{{Name: "V", Write: true}}}}},
			{Name: "red", Tiles: 1, Comm: program.CommReduction, ReduceBytes: 8,
				Stages: []program.Stage{{Name: "r", WorkPerElem: 1}}},
		},
		Iterations:   4,
		WorkUnitCost: 4e-7,
	}
	app := &exec.App{Prog: prog, NewState: func(nc *exec.NodeCtx) exec.State {
		return &flatState{cols: cols}
	}}
	spec := cluster.HY2(8) // CPU skew + slow disks + big memories
	// Shrink memories so some nodes stream: V row = 1 KiB; Blk block =
	// 128 KiB. Give half the nodes 32 KiB budgets.
	for i := 0; i < 4; i++ {
		spec.Nodes[i].MemoryBytes = 32 << 10
	}
	base := dist.Block(rows, 8)
	params, err := instrument.Collect(spec, app, base, 42, 0) // noise-free
	if err != nil {
		t.Fatal(err)
	}
	model := core.MustModel(params)
	for _, pt := range dist.Spectrum(rows, spec, cols*8, 3) {
		w := mpi.NewWorld(spec, 777, 0)
		res, err := exec.Run(w, app, pt.Dist, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pred := model.Predict(pt.Dist)
		rel := (pred.Total - res.Time) / res.Time
		if rel < -5e-4 || rel > 5e-4 {
			t.Errorf("flat app mismatch at %v: predicted %.9f vs actual %.9f (rel %e)",
				pt.Dist, pred.Total, res.Time, rel)
		}
	}
}
