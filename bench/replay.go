package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"mheta"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/experiments"
	"mheta/internal/obs"
	"mheta/internal/search"
	"mheta/internal/serve"
	"mheta/internal/stats"
)

// The traced run replays a serve workload's request stream in-process
// through the same public calls the server's handlers make, with a span
// around each call. The spans time those functions; they cannot show
// whether serve still calls them (see README.md).

// inProcessHandler times Server.ServeHTTP through an httptest recorder:
// the handler's cost without TCP.
type inProcessHandler struct{ srv *serve.Server }

func (h inProcessHandler) post(path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

// warm answers one Blk /predict per scenario, building every engine.
func (h inProcessHandler) warm(scens []scenario) error {
	for _, s := range scens {
		if code, body, _ := h.post("/predict", fmt.Appendf(nil, `{"app":%q,"config":%q}`, s.app, s.config)); code != http.StatusOK {
			return fmt.Errorf("in-process set-up %s: status %d: %s", s, code, body)
		}
	}
	return nil
}

// resolveTraced is the server's scenario resolution (app, scale and
// config lookup, then the application build), spanned.
func resolveTraced(t *tracer, root int, op int64, app, config, scale string) (cluster.Spec, int, error) {
	sp := t.begin("serve.resolve", root, op)
	defer t.end(sp)
	if scale == "" {
		scale = "paper"
	}
	b, err1 := experiments.BuilderByName(app)
	sc, err2 := experiments.ParseScale(scale)
	spec, err3 := cluster.Named(config)
	if err := errors.Join(err1, err2, err3); err != nil {
		return spec, 0, err
	}
	bs := t.begin("apps.build", sp, op)
	total := b.Build(sc).Prog.GlobalElems()
	t.end(bs)
	return spec, total, nil
}

// decodeTraced is the server's strict request decode, spanned.
func decodeTraced(t *tracer, root int, op int64, body []byte, v any) error {
	sp := t.begin("serve.decode", root, op)
	defer t.end(sp)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeTraced is the server's response encode, spanned.
func encodeTraced(t *tracer, root int, op int64, buf *bytes.Buffer, v any) error {
	sp := t.begin("serve.encode", root, op)
	defer t.end(sp)
	buf.Reset()
	return json.NewEncoder(buf).Encode(v)
}

// replica is a scenario's predict engine rebuilt from the pieces the
// server's engine uses: a delta evaluator under a bounded shared memo,
// and a model clone for detailed predictions.
type replica struct {
	memo   *search.Memo
	detail *core.Model
	params core.Params
}

// newReplicas builds fresh replicas, warmed like the server's engines:
// the set-up Blk request, then the stream's prewarm requests.
func newReplicas(ps *predictStream, models []oracleModel, reg *obs.Registry) []*replica {
	rs := make([]*replica, len(models))
	out := make([]float64, 1)
	for i, m := range models {
		dme := search.NewDeltaModelEvaluator(m.model.Clone())
		dme.Observe(reg)
		memo := search.NewMemo(dme)
		memo.Observe(reg)
		memo.SetLimit(1 << 20) // the server's default MemoLimit
		memo.EvaluateBatchInto(out, []dist.Distribution{m.blk})
		rs[i] = &replica{memo: memo, detail: m.model.Clone(), params: m.model.Params()}
	}
	for i := 0; i < ps.prewarm; i++ {
		q := ps.at(int64(i))
		rs[q.scen].memo.EvaluateBatchInto(out, []dist.Distribution{q.d})
	}
	return rs
}

// scenarioIndex maps a scenario to its position, standing in for the
// server's engine lookup.
func scenarioIndex(scens []scenario) map[scenario]int {
	m := make(map[scenario]int, len(scens))
	for i, s := range scens {
		m[s] = i
	}
	return m
}

// predictReplay replays /predict requests through its own fresh
// replicas, spanned when t is non-nil.
type predictReplay struct {
	t      *tracer
	ps     *predictStream
	rs     []*replica
	lookup map[scenario]int
	body   []byte
	buf    bytes.Buffer
	out    []float64
	ds     []dist.Distribution
}

func newPredictReplay(t *tracer, ps *predictStream, models []oracleModel) *predictReplay {
	return &predictReplay{t: t, ps: ps, rs: newReplicas(ps, models, mheta.NewMetrics()),
		lookup: scenarioIndex(ps.scens), out: make([]float64, 1), ds: make([]dist.Distribution, 1)}
}

// op replays request i and returns its wall time in nanoseconds, its
// total, and whether the memo missed.
func (pr *predictReplay) op(i int64) (float64, float64, bool, error) {
	t := pr.t
	pr.body = pr.ps.appendBody(pr.body[:0], pr.ps.at(i))
	start := time.Now()
	root := t.begin("serve.request", -1, i)
	var req serve.PredictRequest
	if err := decodeTraced(t, root, i, pr.body, &req); err != nil {
		return 0, 0, false, err
	}
	spec, total, err := resolveTraced(t, root, i, req.App, req.Config, req.Scale)
	if err != nil {
		return 0, 0, false, err
	}
	sp := t.begin("serve.validate", root, i)
	d := dist.Distribution(req.Dist)
	if len(d) == 0 {
		d = dist.Block(total, spec.N())
	}
	err = d.Validate(total)
	t.end(sp)
	if err != nil {
		return 0, 0, false, err
	}
	r := pr.rs[pr.lookup[scenario{req.App, req.Config}]]
	evals := r.memo.Evaluations()
	sp = t.begin("search.memo_batch", root, i)
	pr.ds[0] = d
	r.memo.EvaluateBatchInto(pr.out, pr.ds)
	t.end(sp)
	resp := serve.PredictResponse{Program: r.params.Program, Dist: d, Iterations: r.params.Iterations, TotalS: pr.out[0]}
	if req.Detailed {
		sp = t.begin("core.detailed", root, i)
		pred := r.detail.PredictDetailed(d)
		t.end(sp)
		resp.PerIterationS, resp.NodeTimesS, resp.SectionTimesS = pred.PerIteration, pred.NodeTimes, pred.SectionTimes
	}
	if err := encodeTraced(t, root, i, &pr.buf, resp); err != nil {
		return 0, 0, false, err
	}
	t.end(root)
	return float64(time.Since(start)), pr.out[0], r.memo.Evaluations() > evals, nil
}

// replayPredict is the traced run's in-process part for /predict. Each
// request goes through Server.ServeHTTP (the handler time), an untraced
// replay and a traced replay, interleaved so all three see the same
// machine state; then the memo misses are replayed through the core
// layer.
func replayPredict(ctx context.Context, e *env, rep *report, ps *predictStream, models []oracleModel, idx []int64, l serveLayer) error {
	h := inProcessHandler{serve.New(serve.Config{})}
	defer h.srv.Shutdown(ctx)
	if err := h.warm(ps.scens); err != nil {
		return err
	}
	var body []byte
	for i := 0; i < ps.prewarm; i++ {
		body = ps.appendBody(body[:0], ps.at(int64(i)))
		h.post("/predict", body)
	}
	plain, traced := newPredictReplay(nil, ps, models), newPredictReplay(e.tr, ps, models)
	var handlerNs, plainNs, tracedNs []float64
	var misses []int64
	for _, i := range idx {
		q := ps.at(i)
		want := models[q.scen].model.Predict(q.d).Total
		body = ps.appendBody(body[:0], q)
		code, resp, d := h.post("/predict", body)
		handlerNs = append(handlerNs, float64(d))
		got, ok := totalBits(resp)
		rep.op(code == http.StatusOK && ok && got == math.Float64bits(want), "in-process request %d: status %d: %s", i, code, resp)
		ns, total, _, err := plain.op(i)
		if err != nil {
			return err
		}
		plainNs = append(plainNs, ns)
		rep.op(sameBits(total, want), "replayed request %d: total %v, want %v", i, total, want)
		ns, total, missed, err := traced.op(i)
		if err != nil {
			return err
		}
		tracedNs = append(tracedNs, ns)
		rep.op(sameBits(total, want), "traced request %d: total %v, want %v", i, total, want)
		if missed {
			misses = append(misses, i)
		}
	}
	// Core layer: the missed candidates through a delta evaluator (the
	// memo's inner evaluator) and through a full Predict.
	dmes := make([]*search.DeltaModelEvaluator, len(models))
	fulls := make([]*core.Model, len(models))
	for s, m := range models {
		dmes[s] = search.NewDeltaModelEvaluator(m.model.Clone())
		dmes[s].Evaluate(m.blk)
		fulls[s] = m.model.Clone()
	}
	for _, i := range misses {
		q := ps.at(i)
		sp := e.tr.begin("core.delta", -1, i)
		got := dmes[q.scen].Evaluate(q.d)
		e.tr.end(sp)
		sp = e.tr.begin("core.predict", -1, i)
		want := fulls[q.scen].Predict(q.d).Total
		e.tr.end(sp)
		rep.op(sameBits(got, want), "delta evaluation of request %d: %v, want %v", i, got, want)
	}

	st := e.tr.stats()
	handlerUS := stats.Mean(handlerNs) / 1e3
	layerUS := st.layerUS("serve.request")
	for _, name := range []string{"serve.decode", "serve.resolve", "serve.validate", "serve.encode"} {
		rep.set(name+"_us", st.meanUS(name))
	}
	rep.set("serve.handler_us", handlerUS)
	rep.set("serve.transport_us", l.rttUS-handlerUS)
	rep.set("serve.unattributed_us", handlerUS-layerUS)
	rep.set("serve.batch_size_mean", l.batchMean)
	rep.set("serve.shed_ratio", l.shed)
	rep.set("serve.engines_built", l.engines)
	rep.set("search.memo_batch_us", st.meanUS("search.memo_batch"))
	rep.set("search.memo_hit_ratio", l.memoHitRatio)
	rep.set("search.delta_hit_ratio", l.deltaHitRatio)
	rep.set("core.detailed_us", st.meanUS("core.detailed"))
	rep.set("core.delta_us", st.meanUS("core.delta"))
	rep.set("core.predict_us", st.meanUS("core.predict"))
	setInstrumentMetrics(rep, st)
	rep.set("trace.overhead_pct", overheadPct(plainNs, tracedNs))
	rep.set("trace.coverage_pct", 100*layerUS/handlerUS)
	fmt.Fprintf(e.log, "traced replay: %d requests, %d memo misses\n", len(idx), len(misses))
	return nil
}

// setInstrumentMetrics reports the set-up layers: instrumentation, model
// compilation and application builds.
func setInstrumentMetrics(rep *report, st traceStats) {
	rep.set("instrument.collect_ms", st.meanUS("instrument.collect")/1e3)
	rep.set("core.new_model_ms", st.meanUS("core.new_model")/1e3)
	rep.set("apps.build_us", st.meanUS("apps.build"))
}

// overheadPct compares the median traced operation with the median
// untraced one.
func overheadPct(plainNs, tracedNs []float64) float64 {
	return 100 * (stats.Median(tracedNs)/stats.Median(plainNs) - 1)
}

// searchOp replays one /search request, spanned when t is non-nil, with
// reg (nil for none) receiving the search layer's counters. It returns
// the wall time in nanoseconds and the response.
func searchOp(ctx context.Context, t *tracer, reg *obs.Registry, models []oracleModel, lookup map[scenario]int,
	i int64, body []byte) (float64, serve.SearchResponse, error) {
	var buf bytes.Buffer
	start := time.Now()
	root := t.begin("serve.request", -1, i)
	var req serve.SearchRequest
	if err := decodeTraced(t, root, i, body, &req); err != nil {
		return 0, serve.SearchResponse{}, err
	}
	if _, _, err := resolveTraced(t, root, i, req.App, req.Config, req.Scale); err != nil {
		return 0, serve.SearchResponse{}, err
	}
	m := models[lookup[scenario{req.App, req.Config}]]
	sp := t.begin("core.clone", root, i)
	model := m.model.Clone()
	t.end(sp)
	sp = t.begin("core.predict", root, i)
	blkT := model.Predict(m.blk).Total
	t.end(sp)
	sp = t.begin("search."+req.Alg, root, i)
	res, err := mheta.SearchWithOptions(req.Alg, m.spec, m.app, model, scenarioSeed,
		mheta.SearchOptions{Workers: req.Workers, Metrics: reg, Context: ctx})
	t.end(sp)
	if err != nil {
		return 0, serve.SearchResponse{}, err
	}
	resp := serve.SearchResponse{Algorithm: res.Algorithm, TimeS: res.Time, Evaluations: res.Evaluations,
		Best: res.Best, Blk: m.blk, BlkTimeS: blkT}
	if err := encodeTraced(t, root, i, &buf, resp); err != nil {
		return 0, serve.SearchResponse{}, err
	}
	t.end(root)
	return float64(time.Since(start)), resp, nil
}

// replaySearch is the traced run's in-process part for /search: each
// request through Server.ServeHTTP, an untraced replay and a traced
// replay, interleaved.
func replaySearch(ctx context.Context, e *env, rep *report, models []oracleModel, cycle []searchReq,
	wants []serve.SearchResponse, idx []int64, l serveLayer) error {
	h := inProcessHandler{serve.New(serve.Config{})}
	defer h.srv.Shutdown(ctx)
	if err := h.warm(searchScenarios); err != nil {
		return err
	}
	lookup := scenarioIndex(searchScenarios)
	reg := mheta.NewMetrics()
	var handlerNs, plainNs, tracedNs []float64
	var body []byte
	for _, i := range idx {
		j := i % int64(len(cycle))
		body = appendSearchBody(body[:0], cycle[j])
		code, resp, d := h.post("/search", body)
		handlerNs = append(handlerNs, float64(d))
		var got serve.SearchResponse
		err := json.Unmarshal(resp, &got)
		rep.op(code == http.StatusOK && err == nil && sameSearch(got, wants[j]), "in-process search %d: status %d: %s", i, code, resp)
		ns, got, err := searchOp(ctx, nil, nil, models, lookup, i, body)
		if err != nil {
			return err
		}
		plainNs = append(plainNs, ns)
		rep.op(sameSearch(got, wants[j]), "replayed search %d differs from the oracle", i)
		ns, got, err = searchOp(ctx, e.tr, reg, models, lookup, i, body)
		if err != nil {
			return err
		}
		tracedNs = append(tracedNs, ns)
		rep.op(sameSearch(got, wants[j]), "traced search %d differs from the oracle", i)
	}

	st := e.tr.stats()
	snap := reg.Snapshot()
	n := float64(len(idx))
	var evals, pooled, searchNs float64
	for _, i := range idx {
		q := cycle[i%int64(len(cycle))]
		evals += float64(wants[i%int64(len(cycle))].Evaluations)
		if q.workers > 1 {
			pooled++
		}
	}
	for _, alg := range searchAlgs {
		rep.set("search."+alg+"_us", st.meanUS("search."+alg))
		searchNs += float64(st.byName["search."+alg].total)
	}
	searchNs += float64(st.byName["core.clone"].total + st.byName["core.predict"].total)
	handlerUS := stats.Mean(handlerNs) / 1e3
	layerUS := st.layerUS("serve.request")
	rep.set("serve.decode_us", st.meanUS("serve.decode"))
	rep.set("serve.resolve_us", st.meanUS("serve.resolve"))
	rep.set("serve.encode_us", st.meanUS("serve.encode"))
	rep.set("serve.handler_us", handlerUS)
	rep.set("serve.transport_us", l.rttUS-handlerUS)
	rep.set("serve.unattributed_us", handlerUS-layerUS)
	rep.set("serve.shed_ratio", l.shed)
	rep.set("serve.engines_built", l.engines)
	rep.set("serve.search_overhead_us", l.rttUS-searchNs/n/1e3)
	rep.set("search.evals_per_search", evals/n)
	rep.set("search.memo_hit_ratio", ratio(counter(snap, "search.memo.hits"), counter(snap, "search.memo.misses")))
	rep.set("search.delta_hit_ratio", ratio(counter(snap, "search.delta.hit"), counter(snap, "search.delta.full")))
	if pooled > 0 {
		rep.set("search.pool_batches", counter(snap, "search.pool.batches")/pooled)
	}
	rep.set("core.clone_us", st.meanUS("core.clone"))
	rep.set("core.predict_us", st.meanUS("core.predict"))
	setInstrumentMetrics(rep, st)
	rep.set("trace.overhead_pct", overheadPct(plainNs, tracedNs))
	rep.set("trace.coverage_pct", 100*layerUS/handlerUS)
	fmt.Fprintf(e.log, "traced replay: %d searches\n", len(idx))
	return nil
}
