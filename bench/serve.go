package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mheta"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/instrument"
	"mheta/internal/obs"
	"mheta/internal/serve"
	"mheta/internal/stats"
)

// oracleModel is a scenario instrumented in-process exactly as the
// server instruments it; its predictions are what every response must
// equal bit for bit.
type oracleModel struct {
	spec  cluster.Spec
	app   *exec.App
	model *core.Model
	blk   dist.Distribution
}

// instrumentScenarios builds the oracle models (spanned as
// instrument.collect and core.new_model in a traced run).
func instrumentScenarios(e *env, scens []scenario) ([]oracleModel, error) {
	out := make([]oracleModel, len(scens))
	for i, s := range scens {
		spec, b, err := s.resolve()
		if err != nil {
			return nil, err
		}
		app := b.Build(scenarioScale)
		blk := dist.Block(app.Prog.GlobalElems(), spec.N())
		root := e.tr.begin("setup.instrument", -1, int64(i))
		sp := e.tr.begin("instrument.collect", root, int64(i))
		params, err := instrument.Collect(spec, app, blk, scenarioSeed, mheta.DefaultNoise)
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("instrument %s: %w", s, err)
		}
		sp = e.tr.begin("core.new_model", root, int64(i))
		model, err := core.NewModel(params)
		e.tr.end(sp)
		e.tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", s, err)
		}
		out[i] = oracleModel{spec: spec, app: app, model: model, blk: blk}
	}
	return out, nil
}

// serveSetup starts mheta-serve and has it answer one Blk /predict for
// every scenario, which instruments each scenario's engine. It does so
// as often as e.moreSetups asks, each time on a fresh server, and
// returns the last server, the number of repetitions and their median
// time (process start to every scenario answered).
func serveSetup(ctx context.Context, e *env, scens []scenario) (*server, int, float64, error) {
	var times []float64
	for ctx.Err() == nil {
		start := time.Now()
		srv, err := startServer(ctx, e.serveBin)
		if err != nil {
			return nil, 0, 0, err
		}
		c, err := dial(srv.addr)
		if err == nil {
			for _, s := range scens {
				body := fmt.Appendf(nil, `{"app":%q,"config":%q}`, s.app, s.config)
				var code int
				var resp []byte
				if code, resp, err = c.do("POST", "/predict", body); err == nil && code != http.StatusOK {
					err = fmt.Errorf("set-up /predict %s: status %d: %s", s, code, resp)
				}
				if err != nil {
					break
				}
			}
			c.close()
		}
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			srv.stop()
			return nil, 0, 0, err
		}
		if !e.moreSetups(times) {
			return srv, len(times), stats.Median(times), nil
		}
		srv.stop()
	}
	return nil, 0, 0, ctx.Err()
}

// closedLoop runs clients closed-loop clients against addr, each on its
// own connection: take the next stream index, send it, wait for the
// reply, repeat. Each client first sends warmup untimed requests; the
// timed phase then starts for all clients together and lasts dur. It
// returns the timed latencies in milliseconds (client 0's first) and the
// timed phase's wall time, from its start until the last reply.
func closedLoop(ctx context.Context, addr string, clients, warmup int, dur time.Duration, next *atomic.Int64,
	send func(k int, c *conn, i int64, timed bool) (time.Duration, error)) ([]float64, time.Duration, error) {
	conns := make([]*conn, clients)
	for k := range conns {
		c, err := dial(addr)
		if err != nil {
			for _, c := range conns[:k] {
				c.close()
			}
			return nil, 0, err
		}
		conns[k] = c
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	lats := make([][]float64, clients)
	errs := make([]error, clients)
	var warmed, wg sync.WaitGroup
	warmed.Add(clients)
	start := make(chan struct{})
	var deadline time.Time // written before start is closed
	for k := 0; k < clients; k++ {
		wg.Add(1)
		//mheta:lifecycle waitgroup
		go func(k int) {
			defer wg.Done()
			c := conns[k]
			for n := 0; n < warmup && errs[k] == nil; n++ {
				_, errs[k] = send(k, c, next.Add(1)-1, false)
			}
			warmed.Done()
			select {
			case <-start:
			case <-ctx.Done():
				return
			}
			for errs[k] == nil && ctx.Err() == nil && time.Now().Before(deadline) {
				var d time.Duration
				d, errs[k] = send(k, c, next.Add(1)-1, true)
				lats[k] = append(lats[k], float64(d)/1e6)
			}
		}(k)
	}
	warmed.Wait()
	t0 := time.Now()
	deadline = t0.Add(dur)
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	var all []float64
	for k := range lats {
		if errs[k] != nil {
			return nil, 0, errs[k]
		}
		all = append(all, lats[k]...)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return all, wall, nil
}

// predictRecord is one /predict reply, kept for the oracle check.
type predictRecord struct {
	i      int64
	status int
	total  uint64 // Float64bits of total_s
	parsed bool
	// latency marks a timed request of a 1-client slice.
	latency bool
	body    []byte // kept for detailed and unexpected replies only
}

// runPredict runs a /predict workload. Ten slices at 1 client
// (latency) alternate with ten at 2 clients (throughput), so both
// metrics sample the whole run rather than one half of it each.
func runPredict(ctx context.Context, e *env, ps *predictStream) (*report, error) {
	rep := newReport(e.log)
	srv, reps, setupS, err := serveSetup(ctx, e, ps.scens)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	models, err := instrumentScenarios(e, ps.scens)
	if err != nil {
		return nil, err
	}

	var next atomic.Int64
	recs := make([][]predictRecord, 2)
	bufs := make([][]byte, 2)
	oneClient := false // set before each closedLoop starts its clients
	send := func(k int, c *conn, i int64, timed bool) (time.Duration, error) {
		q := ps.at(i)
		bufs[k] = ps.appendBody(bufs[k][:0], q)
		t0 := time.Now()
		code, body, err := c.do("POST", "/predict", bufs[k])
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		r := predictRecord{i: i, status: code, latency: timed && oneClient}
		r.total, r.parsed = totalBits(body)
		if code != http.StatusOK || !r.parsed || q.detailed {
			r.body = bytes.Clone(body)
		}
		recs[k] = append(recs[k], r)
		return d, nil
	}
	// The hot stream's distinct requests are sent once first, so the
	// memo is warm before any timed request.
	if ps.prewarm > 0 {
		if _, _, err := closedLoop(ctx, srv.addr, 1, ps.prewarm, 0, &next, send); err != nil {
			return nil, err
		}
	}
	run := time.Duration(e.seconds * float64(time.Second))
	var (
		lat1, lat2 []float64
		wall2      time.Duration
		slices     int
		counters   [][2]obs.Snapshot // around each 2-client slice of a traced run
	)
	for end := time.Now().Add(run); slices == 0 || time.Now().Before(end); slices++ {
		oneClient = true
		lat, _, err := closedLoop(ctx, srv.addr, 1, 20, run/20, &next, send)
		if err != nil {
			return nil, err
		}
		lat1 = append(lat1, lat...)
		oneClient = false
		var around [2]obs.Snapshot
		if e.tr != nil {
			if around[0], err = serverCounters(srv.addr); err != nil {
				return nil, err
			}
		}
		lat, wall, err := closedLoop(ctx, srv.addr, 2, 20, run/20, &next, send)
		if err != nil {
			return nil, err
		}
		lat2 = append(lat2, lat...)
		wall2 += wall
		if e.tr != nil {
			if around[1], err = serverCounters(srv.addr); err != nil {
				return nil, err
			}
			counters = append(counters, around)
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()

	var idx []int64 // 1-client timed requests, replayed by a traced run
	for _, r := range append(recs[0], recs[1]...) {
		ok, why := checkPredict(ps, models, r)
		rep.op(ok, "%s request %d: %s", ps.name, r.i, why)
		if r.latency && len(idx) < 4000 {
			idx = append(idx, r.i)
		}
	}
	fmt.Fprintf(e.log, "%s: setup %d×, %d slices each at 1 client (%d timed requests) and 2 clients (%d in %.2fs, %.6g/s)\n",
		ps.name, reps, slices, len(lat1), len(lat2), wall2.Seconds(), float64(len(lat2))/wall2.Seconds())
	rep.set("setup_s", setupS)
	rep.setLatency(lat1, 0.99)
	// The 2-client rate is two clients over their median round trip
	// (Little's law at the median). The counted rate logged above also
	// carries the tail, and moved by more than the bound between runs of
	// the same code.
	rep.set("work_per_s", 2e3/stats.Median(lat2))
	rep.set("peak_rss_mb", rss)
	if e.tr != nil {
		pc := predictCounters(counters)
		pc.rttUS = stats.Mean(lat1) * 1e3
		if err := replayPredict(ctx, e, rep, ps, models, idx, pc); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// totalBits extracts total_s from a /predict reply without a full
// decode; encoding/json writes the shortest representation that parses
// back to the same float64, so the bits survive the round trip.
func totalBits(body []byte) (uint64, bool) {
	_, rest, ok := bytes.Cut(body, []byte(`"total_s":`))
	if !ok {
		return 0, false
	}
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	return math.Float64bits(v), err == nil
}

// checkPredict compares one reply with the oracle model's prediction for
// the regenerated request.
func checkPredict(ps *predictStream, models []oracleModel, r predictRecord) (bool, string) {
	if r.status != http.StatusOK || !r.parsed {
		return false, fmt.Sprintf("status %d: %s", r.status, r.body)
	}
	q := ps.at(r.i)
	m := models[q.scen]
	if !q.detailed {
		want := m.model.Predict(q.d).Total
		return r.total == math.Float64bits(want), fmt.Sprintf("total_s %v, want %v", math.Float64frombits(r.total), want)
	}
	var got serve.PredictResponse
	if err := json.Unmarshal(r.body, &got); err != nil {
		return false, err.Error()
	}
	want := m.model.PredictDetailed(q.d)
	p := m.model.Params()
	ok := got.Program == p.Program && got.Iterations == p.Iterations && dist.Distribution(got.Dist).Equal(q.d) &&
		sameBits(got.TotalS, want.Total) && sameBits(got.PerIterationS, want.PerIteration) &&
		sameBitsSlice(got.NodeTimesS, want.NodeTimes) && len(got.SectionTimesS) == len(want.SectionTimes)
	for s := 0; ok && s < len(want.SectionTimes); s++ {
		ok = sameBitsSlice(got.SectionTimesS[s], want.SectionTimes[s])
	}
	return ok, fmt.Sprintf("detailed reply differs from PredictDetailed: total_s %v, want %v", got.TotalS, want.Total)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBitsSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// serverCounters fetches the server's /metrics snapshot.
func serverCounters(addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	c, err := dial(addr)
	if err != nil {
		return snap, err
	}
	defer c.close()
	body, err := c.get("/metrics")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(body, &snap)
}

// counter returns a counter's value in a snapshot (0 when absent).
func counter(s obs.Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

// histogram returns a histogram's observation count and sum.
func histogram(s obs.Snapshot, name string) (count, sum float64) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return float64(h.Count), h.Sum
		}
	}
	return 0, 0
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// serveLayer holds the serve-side per-layer numbers read from the
// server's own counters around the timed phases.
type serveLayer struct {
	rttUS                       float64 // mean round trip of the 1-client phase
	batchMean, shed, engines    float64
	memoHitRatio, deltaHitRatio float64
}

// predictCounters derives the /predict program counters: batch size and
// shedding summed over the 2-client slices, memo and delta-path hit
// ratios over the whole run.
func predictCounters(around [][2]obs.Snapshot) serveLayer {
	var l serveLayer
	var n, sum, shed, reqs float64
	for _, a := range around {
		n0, s0 := histogram(a[0], "serve.predict.batchsize")
		n1, s1 := histogram(a[1], "serve.predict.batchsize")
		n, sum = n+n1-n0, sum+s1-s0
		shed += counter(a[1], "serve.predict.shed") - counter(a[0], "serve.predict.shed")
		reqs += counter(a[1], "serve.predict.requests") - counter(a[0], "serve.predict.requests")
	}
	if n > 0 {
		l.batchMean = sum / n
	}
	l.shed = ratio(shed, reqs-shed)
	if len(around) > 0 {
		last := around[len(around)-1][1]
		l.engines = counter(last, "serve.engines.built")
		l.memoHitRatio = ratio(counter(last, "search.memo.hits"), counter(last, "search.memo.misses"))
		l.deltaHitRatio = ratio(counter(last, "search.delta.hit"), counter(last, "search.delta.full"))
	}
	return l
}

// searchRecord is one /search reply, kept for the oracle check.
type searchRecord struct {
	i      int64
	status int
	timed  bool
	ms     float64 // round trip
	body   []byte
}

// runSearch runs the /search workload: one closed-loop client over the
// seed-shuffled request cycle for the whole run.
func runSearch(ctx context.Context, e *env) (*report, error) {
	rep := newReport(e.log)
	srv, reps, setupS, err := serveSetup(ctx, e, searchScenarios)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	models, err := instrumentScenarios(e, searchScenarios)
	if err != nil {
		return nil, err
	}
	cycle := searchCycle(e.seed)
	wants := make([]serve.SearchResponse, len(cycle))
	for j, q := range cycle {
		if wants[j], err = searchInProcess(ctx, models[q.scen], q, nil); err != nil {
			return nil, err
		}
	}

	var next atomic.Int64
	var recs []searchRecord
	var buf []byte
	send := func(_ int, c *conn, i int64, timed bool) (time.Duration, error) {
		buf = appendSearchBody(buf[:0], cycle[i%int64(len(cycle))])
		t0 := time.Now()
		code, body, err := c.do("POST", "/search", buf)
		d := time.Since(t0)
		if err == nil {
			recs = append(recs, searchRecord{i: i, status: code, timed: timed, ms: float64(d) / 1e6, body: bytes.Clone(body)})
		}
		return d, err
	}
	lat, _, err := closedLoop(ctx, srv.addr, 1, len(cycle), time.Duration(e.seconds*float64(time.Second)), &next, send)
	if err != nil {
		return nil, err
	}
	counters, err := serverCounters(srv.addr)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()

	n := int64(len(cycle))
	perReq := make([][]float64, n) // timed round trips of each request of the cycle
	var evals, busy float64
	for _, r := range recs {
		want := wants[r.i%n]
		var got serve.SearchResponse
		err := json.Unmarshal(r.body, &got)
		ok := err == nil && r.status == http.StatusOK && sameSearch(got, want)
		rep.op(ok, "search request %d: status %d: %s", r.i, r.status, r.body)
		if r.timed {
			evals += float64(got.Evaluations)
			busy += r.ms / 1e3
			perReq[r.i%n] = append(perReq[r.i%n], r.ms)
		}
	}
	// The reported rate is the evaluations of one cycle over the sum of
	// each request's median round trip. The rate over all request
	// latency, logged here, also carries the tail, and moved by more than
	// the bound between runs of the same code.
	var cycleEvals, cycleSecs float64
	for j, ms := range perReq {
		if len(ms) > 0 {
			cycleEvals += float64(wants[j].Evaluations)
			cycleSecs += stats.Median(ms) / 1e3
		}
	}
	fmt.Fprintf(e.log, "search: setup %d×, %d timed requests (%.0f evaluations, %.6g per second of request latency)\n",
		reps, len(lat), evals, evals/busy)
	rep.set("setup_s", setupS)
	rep.setLatency(lat, 0.99)
	rep.set("work_per_s", cycleEvals/cycleSecs)
	rep.set("peak_rss_mb", rss)
	if e.tr != nil {
		l := serveLayer{
			rttUS:   stats.Mean(lat) * 1e3,
			engines: counter(counters, "serve.engines.built"),
			shed:    ratio(counter(counters, "serve.search.shed"), counter(counters, "serve.search.requests")-counter(counters, "serve.search.shed")),
		}
		idx := make([]int64, min(len(lat), 10*len(cycle)))
		for j := range idx {
			idx[j] = int64(len(cycle) + j) // the first timed requests, after one warm-up cycle
		}
		if err := replaySearch(ctx, e, rep, models, cycle, wants, idx, l); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// searchInProcess answers q the way the server's /search handler does:
// a fresh clone of the instrumented model, the Blk baseline, then the
// search.
func searchInProcess(ctx context.Context, m oracleModel, q searchReq, reg *obs.Registry) (serve.SearchResponse, error) {
	model := m.model.Clone()
	blkT := model.Predict(m.blk).Total
	res, err := mheta.SearchWithOptions(q.alg, m.spec, m.app, model, scenarioSeed,
		mheta.SearchOptions{Workers: q.workers, Metrics: reg, Context: ctx})
	if err != nil {
		return serve.SearchResponse{}, err
	}
	return serve.SearchResponse{Algorithm: res.Algorithm, TimeS: res.Time, Evaluations: res.Evaluations,
		Best: res.Best, Blk: m.blk, BlkTimeS: blkT}, nil
}

func sameSearch(a, b serve.SearchResponse) bool {
	return a.Algorithm == b.Algorithm && sameBits(a.TimeS, b.TimeS) && a.Evaluations == b.Evaluations &&
		dist.Distribution(a.Best).Equal(b.Best) && dist.Distribution(a.Blk).Equal(b.Blk) && sameBits(a.BlkTimeS, b.BlkTimeS)
}
