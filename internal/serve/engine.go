package serve

import (
	"context"
	"fmt"

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
// two requests naming the same scenario share one model, one evaluation
// batcher and one memo table.
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

// predictReq is one /predict request travelling through an engine's
// admission queue to its batcher.
type predictReq struct {
	d        dist.Distribution
	detailed bool
	ctx      context.Context
	// reply is buffered (capacity 1) so the batcher can answer and move
	// on even when the handler has already timed out and gone away.
	reply chan predictReply
}

// predictReply is the batcher's answer to one predictReq.
type predictReply struct {
	total float64         // model total, from the shared memo batch path
	pred  core.Prediction // detailed prediction; zero unless requested
	err   error           // context error or evaluation failure
}

// engine is the per-scenario serving state: the instrumented model plus
// the machinery that evaluates request batches against it.
//
// Lifecycle: the creating handler registers a shell (under Server.mu),
// then build runs off-lock — instrumentation takes real time and must
// not stall the engine map. ready is closed when build finishes; err is
// set before the close, so any goroutine that has observed ready may
// read err and the other fields (channel happens-before, not a mutex —
// after ready every field below the marker is immutable).
type engine struct {
	scen  Scenario
	spec  cluster.Spec
	app   *exec.App
	ready chan struct{} // closed once build has run; fields below are then frozen

	err    error       // build failure, if any; nil fields below when set
	master *core.Model // pristine — only ever cloned, never evaluated
	params core.Params
	blk    dist.Distribution // the Blk baseline for this scenario
	memo   *search.Memo      // shared cross-request table over the worker pool

	// queue is the bounded admission queue: handlers enqueue with a
	// non-blocking send (full queue = shed with 429) and the batcher
	// coalesces whatever has accumulated into one memo batch.
	queue chan *predictReq

	// Batcher-owned state (the batch goroutine is the only toucher, so
	// like Memo's scratch these carry no lock annotations — ownership,
	// not a mutex, is the discipline).
	detail *core.Model // evaluates PredictDetailed for detailed requests
	ds     []dist.Distribution
	out    []float64
}

// build instruments the scenario's model and starts the batcher. It runs
// on its own goroutine, registered with s.wg by the creating handler.
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
	e.detail = model.Clone()

	// Same evaluator stack as a CLI search — delta evaluator under an
	// optional worker pool under the memo — except the memo here is
	// long-lived and shared across requests, so the epoch-eviction limit
	// bounds its footprint. Observe before NewPool so the pool's worker
	// clones share the delta-path counters.
	dme := search.NewDeltaModelEvaluator(model.Clone())
	dme.Observe(s.reg)
	var ev search.Evaluator = dme
	if s.cfg.Workers > 1 {
		pool := search.NewPool(dme, s.cfg.Workers, dme.CloneEvaluator)
		pool.Observe(s.reg)
		ev = pool
	}
	memo := search.NewMemo(ev)
	memo.Observe(s.reg)
	memo.SetLimit(s.cfg.MemoLimit)
	e.memo = memo

	s.wg.Add(1)       // safe: s.wg is held >= 1 by this build goroutine
	go e.batchLoop(s) //mheta:lifecycle waitgroup
}

// batchLoop is the engine's single batcher goroutine: it blocks for one
// request, then drains whatever else the queue holds (up to MaxBatch)
// into the same evaluation batch. Under load, concurrent /predict
// requests coalesce into few large memo batches; when idle, a lone
// request is served immediately — the loop never waits to fill a batch.
// It exits when Shutdown closes the queue, which happens only after all
// in-flight handlers (the only senders) have drained.
func (e *engine) batchLoop(s *Server) {
	defer s.wg.Done()
	batch := make([]*predictReq, 0, s.cfg.MaxBatch)
	for {
		req, ok := <-e.queue
		if !ok {
			return
		}
		batch = append(batch[:0], req)
	fill:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r, ok := <-e.queue:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		e.serveBatch(s, batch)
	}
}

// serveBatch answers one coalesced batch: requests whose context already
// expired are refused without spending model time, the rest are scored
// in a single Memo.EvaluateBatchInto (in-batch duplicates and
// previously-seen distributions hit the table), and detailed requests
// additionally run PredictDetailed on the batcher's own model clone.
func (e *engine) serveBatch(s *Server, batch []*predictReq) {
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			s.mExpired.Inc()
			r.reply <- predictReply{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if s.testHookBatch != nil {
		s.testHookBatch(len(live))
	}
	s.mBatches.Inc()
	s.mBatchSize.Observe(float64(len(live)))
	e.ds = e.ds[:0]
	for _, r := range live {
		e.ds = append(e.ds, r.d)
	}
	if cap(e.out) < len(live) {
		e.out = make([]float64, len(live))
	}
	out := e.out[:len(live)]

	// A panicking evaluation (a bug, not a full queue) must not kill the
	// batcher and orphan every future request on this engine: convert it
	// into an error reply for the requests still waiting. Each reply
	// channel is buffered and written at most once, so the recovery path
	// only answers the suffix the panic interrupted.
	replied := 0
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("evaluate %s: panic: %v", e.scen, r)
			for _, q := range live[replied:] {
				q.reply <- predictReply{err: err}
			}
		}
	}()
	e.memo.EvaluateBatchInto(out, e.ds)
	for i, q := range live {
		rep := predictReply{total: out[i]}
		if q.detailed {
			rep.pred = e.detail.PredictDetailed(q.d)
		}
		q.reply <- rep
		replied++
	}
}
