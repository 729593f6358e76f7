package serve

import (
	"fmt"
	"sync"

	"mheta"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/search"
)

// Scenario identifies one instrumented model: an application built at a
// dataset scale, a cluster configuration and the noise seed the
// instrumentation ran under. Scenarios are the server's engine-map key;
// two requests naming the same scenario share one model and one memo
// table.
type Scenario struct {
	App    string // application name, as mheta-predict/-search spell it
	Config string // cluster configuration: DC, IO, HY1, HY2
	Scale  string // dataset scale: paper, quick, test
	Seed   uint64 // instrumentation noise seed
}

func (sc Scenario) String() string {
	return fmt.Sprintf("%s/%s/%s/seed=%d", sc.App, sc.Config, sc.Scale, sc.Seed)
}

// scenarioWire is the JSON shape scenarios arrive in. Seed is a pointer
// so "omitted" (default 42, the CLI default) is distinguishable from an
// explicit seed 0.
type scenarioWire struct {
	App    string  `json:"app"`
	Config string  `json:"config"`
	Scale  string  `json:"scale,omitempty"`
	Seed   *uint64 `json:"seed,omitempty"`
}

// engine is the per-scenario serving state: the instrumented model, the
// shared memo that scores /predict requests against it, and the slots
// that bound how many of those requests run at once.
//
// Lifecycle: the creating handler registers a shell (under Server.mu),
// then build runs off-lock — instrumentation takes real time and must
// not stall the engine map. ready is closed when build finishes; err is
// set before the close, so any goroutine that has observed ready may
// read err and the other fields (channel happens-before, not a mutex —
// after ready every field below the marker is immutable; the detail
// model itself is used only under detailMu).
type engine struct {
	scen  Scenario
	spec  cluster.Spec
	app   *exec.App
	slots chan struct{} // in-flight /predict requests; a full engine sheds with 429
	ready chan struct{} // closed once build has run; fields below are then frozen

	err    error       // build failure, if any; nil fields below when set
	master *core.Model // pristine — only ever cloned, never evaluated
	params core.Params
	blk    dist.Distribution // the Blk baseline for this scenario
	memo   *search.Memo      // shared cross-request table over the delta evaluator

	// detail evaluates PredictDetailed for detailed requests; a model is
	// single-goroutine, so concurrent handlers take turns on it.
	detailMu sync.Mutex
	detail   *core.Model //mheta:guardedby detailMu
}

// build instruments the scenario's model. It runs on its own goroutine,
// registered with s.wg by the creating handler.
func (e *engine) build(s *Server) {
	defer s.wg.Done()
	defer close(e.ready)
	model, err := mheta.Instrument(e.spec, e.app, e.scen.Seed)
	if err != nil {
		e.err = fmt.Errorf("instrument %s: %w", e.scen, err)
		return
	}
	e.master = model
	e.params = model.Params()
	e.blk = dist.Block(e.app.Prog.GlobalElems(), e.spec.N())
	//lint:ignore guarded handlers touch detail only after <-e.ready, and close(e.ready) orders this write before their reads
	e.detail = model.Clone()

	// Same delta evaluator as a CLI search, under a memo that is
	// long-lived and shared across requests, so the epoch-eviction limit
	// bounds its footprint. The memo serialises its concurrent callers'
	// misses on the single-goroutine delta evaluator; hits never reach
	// it.
	dme := search.NewDeltaModelEvaluator(model.Clone())
	dme.Observe(s.reg)
	memo := search.NewMemo(dme)
	memo.Observe(s.reg)
	memo.SetLimit(s.cfg.MemoLimit)
	e.memo = memo
}

// built reports whether build has run, after which err and the model
// fields may be read.
func (e *engine) built() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// predict scores d through the shared memo, as a batch of one.
func (e *engine) predict(d dist.Distribution) float64 {
	var out [1]float64
	ds := [1]dist.Distribution{d}
	e.memo.EvaluateBatchInto(out[:], ds[:])
	return out[0]
}

// predictDetailed runs PredictDetailed on the engine's detail clone.
func (e *engine) predictDetailed(d dist.Distribution) core.Prediction {
	e.detailMu.Lock()
	defer e.detailMu.Unlock()
	return e.detail.PredictDetailed(d)
}
