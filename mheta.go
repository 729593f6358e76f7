// Package mheta is the public API of this MHETA reproduction: the
// execution model of "The MHETA Execution Model for Heterogeneous
// Clusters" (Nakazawa, Lowenthal, Zhou — SC 2005) together with the
// emulated heterogeneous cluster, the out-of-core application executor,
// the MPI-Jack instrumentation pipeline, and the distribution-search
// algorithms of the companion work.
//
// The typical flow mirrors the paper's runtime system:
//
//	spec := mheta.MustNamedCluster("HY1")         // Table 1 architecture
//	app  := mheta.Jacobi(mheta.JacobiDefaults())  // a benchmark app
//	model, _ := mheta.Instrument(spec, app, 42)   // micro-bench + 1 instrumented iteration
//	pred := model.Predict(candidate)              // Equations 1–5
//	best := mheta.SearchGBS(spec, app, model)     // distribution search
//
// See the examples/ directory for runnable programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured record.
package mheta

import (
	"context"
	"fmt"

	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/obs"
	"mheta/internal/search"
)

// Re-exported core types. The internal packages carry the full API; the
// facade covers the common path.
type (
	// ClusterSpec describes an emulated heterogeneous cluster (Figure 2).
	ClusterSpec = cluster.Spec
	// NodeSpec is one node's relative CPU power, memory and disk scale.
	NodeSpec = cluster.NodeSpec
	// Distribution is a 1-D GEN_BLOCK distribution: elements per node.
	Distribution = dist.Distribution
	// App is a runnable application (program structure + numeric kernels).
	App = exec.App
	// Model is a compiled MHETA instance.
	Model = core.Model
	// Params is the measured parameter set behind a Model.
	Params = core.Params
	// Prediction is a model evaluation result.
	Prediction = core.Prediction
	// SearchResult is a distribution-search outcome.
	SearchResult = search.Result
	// JacobiConfig, CGConfig, LanczosConfig, RNAConfig and MGConfig size
	// the benchmark applications.
	JacobiConfig  = apps.JacobiConfig
	CGConfig      = apps.CGConfig
	LanczosConfig = apps.LanczosConfig
	RNAConfig     = apps.RNAConfig
	MGConfig      = apps.MGConfig
)

// NamedCluster returns a Table 1 configuration: "DC", "IO", "HY1", "HY2".
func NamedCluster(name string) (ClusterSpec, error) { return cluster.Named(name) }

// MustNamedCluster is NamedCluster for static names; it panics on error.
func MustNamedCluster(name string) ClusterSpec {
	s, err := cluster.Named(name)
	if err != nil {
		panic(err)
	}
	return s
}

// JacobiDefaults, CGDefaults, LanczosDefaults and RNADefaults return the
// experiment-scale configurations of §5.1.
func JacobiDefaults() JacobiConfig   { return apps.DefaultJacobiConfig() }
func CGDefaults() CGConfig           { return apps.DefaultCGConfig() }
func LanczosDefaults() LanczosConfig { return apps.DefaultLanczosConfig() }
func RNADefaults() RNAConfig         { return apps.DefaultRNAConfig() }

// MGDefaults returns the multigrid configuration (§6 future work,
// implemented here as a two-grid V-cycle).
func MGDefaults() MGConfig { return apps.DefaultMGConfig() }

// Jacobi, CG, Lanczos, RNA and Multigrid build the benchmark
// applications (the paper's four plus the §6 extension).
func Jacobi(cfg JacobiConfig) *App   { return apps.NewJacobi(cfg) }
func CG(cfg CGConfig) *App           { return apps.NewCG(cfg) }
func Lanczos(cfg LanczosConfig) *App { return apps.NewLanczos(cfg) }
func RNA(cfg RNAConfig) *App         { return apps.NewRNA(cfg) }
func Multigrid(cfg MGConfig) *App    { return apps.NewMultigrid(cfg) }

// BlockDistribution returns the Blk distribution for an app on a cluster.
func BlockDistribution(app *App, spec ClusterSpec) Distribution {
	return dist.Block(app.Prog.GlobalElems(), spec.N())
}

// DefaultNoise is the emulation perturbation amplitude used throughout
// the evaluation (±2%).
const DefaultNoise = 0.02

// Instrument runs the micro-benchmarks and the single instrumented
// iteration (under Blk, as in the paper) and returns the compiled model.
func Instrument(spec ClusterSpec, app *App, seed uint64) (*Model, error) {
	params, err := InstrumentParams(spec, app, seed)
	if err != nil {
		return nil, err
	}
	return core.NewModel(params)
}

// InstrumentParams is Instrument returning the raw parameter set (for
// serialisation via the param file format). It is a one-off: it leaves
// no recycled dataset arena behind in the process (exec.DropArenas).
func InstrumentParams(spec ClusterSpec, app *App, seed uint64) (Params, error) {
	base := BlockDistribution(app, spec)
	defer exec.DropArenas()
	return instrument.Collect(spec, app, base, seed, DefaultNoise)
}

// RunActual executes the application under a distribution on a fresh
// emulated world and returns the total virtual execution time in seconds.
func RunActual(spec ClusterSpec, app *App, d Distribution, seed uint64) (float64, error) {
	w := mpi.NewWorld(spec, seed, DefaultNoise)
	res, err := exec.Run(w, app, d, exec.Options{})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// SearchGBS finds an efficient distribution with generalized binary
// search over the Figure 8 spectrum, using the model as the evaluation
// function.
func SearchGBS(spec ClusterSpec, app *App, model *Model) SearchResult {
	var bpe int64
	for _, v := range app.Prog.DistributedVars() {
		bpe += v.ElemBytes
	}
	g := &search.GBS{Spec: spec, BytesPerElem: bpe}
	return g.Search(search.NewDeltaModelEvaluator(model), app.Prog.GlobalElems())
}

// Searcher names for SearchWith.
const (
	AlgGBS       = "gbs"
	AlgGenetic   = "genetic"
	AlgAnnealing = "annealing"
	AlgRandom    = "random"
)

// SearchWith runs the named algorithm ("gbs", "genetic", "annealing",
// "random") with default parameters.
func SearchWith(alg string, spec ClusterSpec, app *App, model *Model, seed uint64) (SearchResult, error) {
	return SearchWithOptions(alg, spec, app, model, seed, SearchOptions{})
}

// Metrics is an observability registry (see internal/obs): counters,
// gauges, histograms and convergence series the search machinery fills
// when one is supplied. A nil *Metrics disables all instrumentation at
// the cost of a nil check.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// SearchOptions configures SearchWithOptions beyond the algorithm name.
type SearchOptions struct {
	// Workers is ignored: every search scores its candidates on one
	// evaluator, on the caller's goroutine.
	//
	// Deprecated: ignored. The field stays only while the benchmark
	// module still sets it; the next change to that module deletes it.
	Workers int
	// Metrics, when non-nil, receives the memo hit/miss counters, the
	// delta-path counters and the per-algorithm convergence series
	// ("search.<alg>.best"). Observation only: the result is
	// bit-identical with or without it.
	Metrics *Metrics
	// Context, when non-nil, bounds the search: once it is done the
	// search aborts at the next evaluation batch and SearchWithOptions
	// returns the context's error (context.Canceled or DeadlineExceeded).
	// A search that completes before the deadline is bit-identical to an
	// unbounded one — the deadline affects whether a result is produced,
	// never which result.
	Context context.Context
}

// SearchWithOptions runs the named algorithm ("gbs", "genetic",
// "annealing", "random") with an optional metrics registry and an
// optional cancellation context.
func SearchWithOptions(alg string, spec ClusterSpec, app *App, model *Model, seed uint64, opts SearchOptions) (SearchResult, error) {
	// The delta evaluator replays cached per-width busy terms, scoring
	// bit-identically to ModelEvaluator but several times faster on the
	// near-neighbour candidates searches emit.
	dme := search.NewDeltaModelEvaluator(model)
	dme.Observe(opts.Metrics)
	total := app.Prog.GlobalElems()
	var s search.Searcher
	switch alg {
	case AlgGBS:
		var bpe int64
		for _, v := range app.Prog.DistributedVars() {
			bpe += v.ElemBytes
		}
		s = &search.GBS{Spec: spec, BytesPerElem: bpe, Obs: opts.Metrics}
	case AlgGenetic:
		s = &search.Genetic{N: spec.N(), Seed: seed, Obs: opts.Metrics}
	case AlgAnnealing:
		s = &search.Annealing{N: spec.N(), Seed: seed, Obs: opts.Metrics}
	case AlgRandom:
		s = &search.Random{N: spec.N(), Seed: seed, Obs: opts.Metrics}
	default:
		return SearchResult{}, fmt.Errorf("mheta: unknown search algorithm %q", alg)
	}
	return search.SearchContext(opts.Context, s, dme, total)
}
