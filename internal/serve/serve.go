// Package serve is the mheta prediction/search service: an HTTP/JSON
// front end over the MHETA model (cmd/mheta-serve is the binary). It
// exposes three endpoints:
//
//	POST /predict  score a distribution for a cluster+app scenario
//	POST /search   run a distribution search and return the result
//	GET  /metrics  the server's observability registry as JSON
//
// Wire values are bit-identical to the equivalent mheta-predict and
// mheta-search CLI runs: a scenario is instrumented once (same
// mheta.Instrument path, same seed), the model is cloned per use, and
// evaluation order never affects values — so memoization and
// parallelism change throughput only.
//
// The serving shape is production-grade on purpose:
//
//   - /predict requests take one of a bounded number of per-engine slots
//     (all taken = shed with 429) and are scored on their own handler
//     goroutine, as a batch of one through a shared cross-request memo
//     (epoch eviction bounds it). A canonical body is decoded by a strict
//     single-pass scanner and the answer appended straight into bytes;
//     encoding/json, which defines the wire format, decodes every other
//     body and encodes every answer the appender cannot render
//     identically. Only a request that must wait for its engine's build
//     gets a deadline context; a warm request never waits.
//   - /search requests take a slot from a bounded semaphore (running +
//     backlog over the cap = shed with 429) and run the searcher under a
//     per-request context deadline threaded into the search loop.
//   - Shutdown drains: in-flight handlers and engine builds finish (each
//     bounded by its own deadline). New work is refused with 503 the
//     moment shutdown begins.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mheta"
	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/obs"
)

// Config sizes the server. The zero value of any field selects the
// default noted on it.
type Config struct {
	// QueueDepth bounds the in-flight /predict requests per engine; one
	// more sheds with 429 (default 256).
	QueueDepth int
	// MemoLimit bounds each engine's shared memo table; crossing it
	// evicts the epoch (default 1<<20 entries).
	MemoLimit int
	// MaxSearches bounds concurrently running /search requests
	// (default 2).
	MaxSearches int
	// SearchBacklog bounds how many /search requests may wait for a
	// slot beyond the running cap; more shed with 429 (default
	// 2*MaxSearches).
	SearchBacklog int
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 30s); MaxTimeout clamps client-requested deadlines
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Registry receives the server's metrics; nil makes a private one.
	// Served at GET /metrics either way. Instrument names are shared
	// across engines, so counters aggregate over scenarios.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MemoLimit <= 0 {
		c.MemoLimit = 1 << 20
	}
	if c.MaxSearches <= 0 {
		c.MaxSearches = 2
	}
	if c.SearchBacklog <= 0 {
		c.SearchBacklog = 2 * c.MaxSearches
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = obs.New()
	}
	return c
}

// errShutdown is returned to work arriving after Shutdown began.
var errShutdown = errors.New("server is shutting down")

// Server is the serving state. Create with New; it implements
// http.Handler. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	reg *obs.Registry
	mux *http.ServeMux

	mu      sync.Mutex
	engines map[Scenario]*engine //mheta:guardedby mu
	closed  bool                 //mheta:guardedby mu

	// inflight counts admitted HTTP requests. The Add is gated by
	// mu+closed (never Add after closed), which makes the Wait in
	// Shutdown sound.
	inflight sync.WaitGroup
	// wg counts engine builders; Shutdown waits for it after the
	// handlers have drained.
	wg sync.WaitGroup

	// searchSlots is the running-search semaphore; searchWaiters counts
	// running plus waiting, bounding the backlog.
	searchSlots   chan struct{}
	searchWaiters atomic.Int64

	// Counters are created once here and written concurrently (they are
	// internally atomic).
	mPredict, mShed                       *obs.Counter
	mSearch, mSearchShed, mSearchCanceled *obs.Counter
	mEngines                              *obs.Counter

	// Test seams, nil in production; set before the first request.
	// testHookSearchStarted runs with a search slot held, after the
	// model clone and the Blk baseline, before the search itself.
	// testHookPredict runs with a predict slot held, before evaluation.
	testHookSearchStarted func(ctx context.Context)
	testHookPredict       func()
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Registry,
		engines:     make(map[Scenario]*engine),
		searchSlots: make(chan struct{}, cfg.MaxSearches),
	}
	s.mPredict = s.reg.Counter("serve.predict.requests")
	s.mShed = s.reg.Counter("serve.predict.shed")
	s.mSearch = s.reg.Counter("serve.search.requests")
	s.mSearchShed = s.reg.Counter("serve.search.shed")
	s.mSearchCanceled = s.reg.Counter("serve.search.canceled")
	s.mEngines = s.reg.Counter("serve.engines.built")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler: every request is tracked in the
// in-flight group so Shutdown can drain, and refused with 503 once
// shutdown has begun.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		httpError(w, http.StatusServiceUnavailable, errShutdown.Error())
		return
	}
	defer s.inflight.Done()
	s.mux.ServeHTTP(w, r)
}

// admit registers the request in the in-flight group unless the server
// is closing.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the server: new requests are refused with 503
// immediately, then in-flight handlers and engine builds run to
// completion (each bounded by its own request deadline). It returns nil
// on a complete drain or ctx's error if the deadline fires first (the
// server is then stopped for new work but some internals may still be
// unwinding).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Metrics returns the server's registry (also served at GET /metrics).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// scenarioOf validates a wire scenario and returns its canonical key.
// Defaults mirror the CLI flags: scale "paper", seed 42.
func scenarioOf(w scenarioWire) (Scenario, error) {
	if w.App == "" {
		return Scenario{}, errors.New("missing \"app\" (jacobi, jacobi-pf, cg, lanczos, rna, multigrid)")
	}
	if w.Config == "" {
		return Scenario{}, errors.New("missing \"config\" (DC, IO, HY1, HY2)")
	}
	scen := Scenario{App: w.App, Config: w.Config, Scale: w.Scale, Seed: 42}
	if scen.Scale == "" {
		scen.Scale = "paper"
	}
	if w.Seed != nil {
		scen.Seed = *w.Seed
	}
	return scen, nil
}

// lookup returns the scenario's engine (nil when it has none) and
// whether the server is shutting down, under one hold of s.mu.
func (s *Server) lookup(scen Scenario) (*engine, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engines[scen], s.closed
}

// buildScenario builds the cluster spec and application a scenario
// names.
func buildScenario(scen Scenario) (cluster.Spec, *exec.App, error) {
	b, err := experiments.BuilderByName(scen.App)
	if err != nil {
		return cluster.Spec{}, nil, err
	}
	sc, err := experiments.ParseScale(scen.Scale)
	if err != nil {
		return cluster.Spec{}, nil, err
	}
	spec, err := cluster.Named(scen.Config)
	if err != nil {
		return cluster.Spec{}, nil, err
	}
	return spec, b.Build(sc), nil
}

// resolveScenario validates a wire scenario and returns the canonical
// key plus the cluster spec and application. A warm scenario reuses its
// engine's spec and application; only an engine-map miss builds them.
func (s *Server) resolveScenario(w scenarioWire) (Scenario, cluster.Spec, *exec.App, error) {
	scen, err := scenarioOf(w)
	if err != nil {
		return Scenario{}, cluster.Spec{}, nil, err
	}
	if e, _ := s.lookup(scen); e != nil {
		return scen, e.spec, e.app, nil
	}
	spec, app, err := buildScenario(scen)
	if err != nil {
		return Scenario{}, cluster.Spec{}, nil, err
	}
	return scen, spec, app, nil
}

// engine returns the scenario's engine, building it (once, off-lock) on
// first use. Concurrent requests for the same scenario wait on the same
// build; ctx bounds the wait. A failed build is cached — the scenario is
// deterministic, so retrying would fail identically.
func (s *Server) engine(ctx context.Context, scen Scenario, spec cluster.Spec, app *exec.App) (*engine, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errShutdown
	}
	e, ok := s.engines[scen]
	if !ok {
		e = &engine{
			scen:  scen,
			spec:  spec,
			app:   app,
			slots: make(chan struct{}, s.cfg.QueueDepth),
			ready: make(chan struct{}),
		}
		s.engines[scen] = e
		s.wg.Add(1)
		s.mu.Unlock()
		s.mEngines.Inc()
		go e.build(s) //mheta:lifecycle waitgroup
	} else {
		s.mu.Unlock()
	}
	select {
	case <-e.ready:
		return e, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// requestContext applies the per-request deadline: the client's
// timeout_ms when given (clamped to MaxTimeout), DefaultTimeout
// otherwise.
func (s *Server) requestContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(parent, d)
}

// PredictRequest is the POST /predict body.
type PredictRequest struct {
	scenarioWire
	// Dist is the candidate distribution (elements per node); omitted
	// selects the Blk baseline.
	Dist []int `json:"dist,omitempty"`
	// Detailed adds per-iteration, per-node and per-section times to the
	// response (evaluated outside the memo fast path).
	Detailed bool `json:"detailed,omitempty"`
	// TimeoutMS overrides the server's default request deadline, which
	// bounds the wait for the scenario's engine build: the only wait a
	// /predict request can block on (a full engine sheds instead).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PredictResponse is the POST /predict answer. TotalS is bit-identical
// to mheta-predict's total for the same scenario and distribution; the
// detailed fields match -detailed output the same way.
type PredictResponse struct {
	Program       string      `json:"program"`
	Dist          []int       `json:"dist"`
	Iterations    int         `json:"iterations"`
	TotalS        float64     `json:"total_s"`
	PerIterationS float64     `json:"per_iteration_s,omitempty"`
	NodeTimesS    []float64   `json:"node_times_s,omitempty"`
	SectionTimesS [][]float64 `json:"section_times_s,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.mPredict.Inc()
	buf, err := readBody(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer putBuf(buf)
	var req PredictRequest
	if err := decodePredict(*buf, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	scen, err := scenarioOf(req.scenarioWire)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	e, closed := s.lookup(scen)
	var spec cluster.Spec
	var app *exec.App
	if e != nil {
		spec, app = e.spec, e.app
	} else if spec, app, err = buildScenario(scen); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	d := dist.Distribution(req.Dist)
	if len(d) == 0 {
		d = dist.Block(app.Prog.GlobalElems(), spec.N())
	}
	if len(d) != spec.N() {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("dist has %d entries, want %d (one per node)", len(d), spec.N()))
		return
	}
	if err := d.Validate(app.Prog.GlobalElems()); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	switch {
	case closed:
		err = errShutdown
	case e == nil || !e.built():
		// The engine build is the only wait, so only it needs the
		// request deadline.
		ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
		e, err = s.engine(ctx, scen, spec, app)
		cancel()
	default:
		err = e.err
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	select {
	case e.slots <- struct{}{}:
		defer func() { <-e.slots }()
	default:
		s.mShed.Inc()
		httpError(w, http.StatusTooManyRequests, "too many in-flight predicts")
		return
	}
	if s.testHookPredict != nil {
		s.testHookPredict()
	}
	resp := PredictResponse{
		Program:    e.params.Program,
		Dist:       d,
		Iterations: e.params.Iterations,
		TotalS:     e.predict(d),
	}
	if req.Detailed {
		pred := e.predictDetailed(d)
		resp.PerIterationS = pred.PerIteration
		resp.NodeTimesS = pred.NodeTimes
		resp.SectionTimesS = pred.SectionTimes
	}
	writePredict(w, buf, &resp)
}

// SearchRequest is the POST /search body.
type SearchRequest struct {
	scenarioWire
	// Alg is the algorithm: gbs (default), genetic, annealing, random.
	Alg string `json:"alg,omitempty"`
	// Workers is ignored apart from its sign: a negative value is
	// rejected with 400, and every accepted value scores the search on
	// the handler's goroutine.
	//
	// Deprecated: ignored. The field stays only while the benchmark
	// module still sends it; the next change to that module deletes it.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS overrides the server's default request deadline; a
	// search still running at the deadline is aborted (504).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// algorithm validates the request's search options and returns the
// algorithm to run (gbs when none is named).
func (req *SearchRequest) algorithm() (string, error) {
	alg := req.Alg
	if alg == "" {
		alg = mheta.AlgGBS
	}
	switch alg {
	case mheta.AlgGBS, mheta.AlgGenetic, mheta.AlgAnnealing, mheta.AlgRandom:
	default:
		return "", fmt.Errorf("unknown alg %q (gbs, genetic, annealing, random)", alg)
	}
	if req.Workers < 0 {
		return "", fmt.Errorf("workers %d < 0", req.Workers)
	}
	return alg, nil
}

// SearchResponse is the POST /search answer; the first four fields are
// bit-identical to the mheta-search row for the same scenario, and
// Blk/BlkTimeS match its baseline row.
type SearchResponse struct {
	Algorithm   string  `json:"algorithm"`
	TimeS       float64 `json:"time_s"`
	Evaluations int     `json:"evaluations"`
	Best        []int   `json:"best"`
	Blk         []int   `json:"blk"`
	BlkTimeS    float64 `json:"blk_time_s"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.mSearch.Inc()
	buf, err := readBody(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req SearchRequest
	err = decodeJSON(*buf, &req)
	putBuf(buf)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	scen, spec, app, err := s.resolveScenario(req.scenarioWire)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	alg, err := req.algorithm()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()

	// Admission: shed immediately when the backlog is full, otherwise
	// wait (deadline-bounded) for a running slot.
	if int(s.searchWaiters.Add(1)) > s.cfg.MaxSearches+s.cfg.SearchBacklog {
		s.searchWaiters.Add(-1)
		s.mSearchShed.Inc()
		httpError(w, http.StatusTooManyRequests, "search backlog full")
		return
	}
	defer s.searchWaiters.Add(-1)
	select {
	case s.searchSlots <- struct{}{}:
		defer func() { <-s.searchSlots }()
	case <-ctx.Done():
		s.mSearchCanceled.Inc()
		s.writeErr(w, ctx.Err())
		return
	}

	e, err := s.engine(ctx, scen, spec, app)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// Clone-then-search is exactly the CLI sequence: a fresh model, the
	// Blk baseline prediction, then the search — so every returned value
	// is bit-identical to mheta-search on the same scenario. Cloning the
	// never-evaluated master is safe concurrently (pure reads); the clone
	// replays the engine's shared busy-term table.
	model := e.master.Clone()
	blkPred := model.Predict(e.blk).Total
	if s.testHookSearchStarted != nil {
		s.testHookSearchStarted(ctx)
	}
	res, err := mheta.SearchWithOptions(alg, e.spec, e.app, model, scen.Seed,
		mheta.SearchOptions{Context: ctx})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.mSearchCanceled.Inc()
		}
		s.writeErr(w, err)
		return
	}
	writeJSON(w, SearchResponse{
		Algorithm:   res.Algorithm,
		TimeS:       res.Time,
		Evaluations: res.Evaluations,
		Best:        res.Best,
		Blk:         e.blk,
		BlkTimeS:    blkPred,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteJSON(w); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}

// writeErr maps an internal error to its HTTP status.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShutdown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		httpError(w, http.StatusGatewayTimeout, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
