package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mheta"
	"mheta/internal/dist"
	"mheta/internal/experiments"
	"mheta/internal/obs"
)

// The tests run everything at "test" scale on HY1 so instrumentation is
// cheap; refModel builds the CLI-equivalent reference the server's wire
// values must match bit for bit.
func testWire() scenarioWire {
	return scenarioWire{App: "jacobi", Config: "HY1", Scale: "test"}
}

func refModel(t *testing.T) (*mheta.Model, *mheta.App, mheta.ClusterSpec) {
	t.Helper()
	b, err := experiments.BuilderByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := experiments.ParseScale("test")
	if err != nil {
		t.Fatal(err)
	}
	app := b.Build(sc)
	spec := mheta.MustNamedCluster("HY1")
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		t.Fatal(err)
	}
	return model, app, spec
}

// postJSON posts body and fails the test on a transport error; call it
// only from the test's own goroutine.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	code, data, err := post(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, data
}

// post is postJSON for spawned goroutines: it returns the transport
// error for the caller to report.
func post(url string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %T from %s: %v", v, data, err)
	}
	return v
}

// TestPredictMatchesModel pins the wire contract: /predict totals are
// bit-identical to a direct model evaluation of the same scenario — for
// the default Blk distribution and for an explicit skewed one.
func TestPredictMatchesModel(t *testing.T) {
	model, app, spec := refModel(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blk := mheta.BlockDistribution(app, spec)
	skew := blk.Clone()
	skew[0] -= 2
	skew[len(skew)-1] += 2

	for _, tc := range []struct {
		name string
		d    []int
		want float64
	}{
		{"default-blk", nil, model.PredictTotal(blk)},
		{"explicit-skew", skew, model.PredictTotal(skew)},
	} {
		code, data := postJSON(t, ts.URL+"/predict", PredictRequest{scenarioWire: testWire(), Dist: tc.d})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, code, data)
		}
		got := decode[PredictResponse](t, data)
		if got.TotalS != tc.want {
			t.Errorf("%s: total %v, want %v (bit-identical)", tc.name, got.TotalS, tc.want)
		}
		if got.Program != model.Params().Program || got.Iterations != model.Params().Iterations {
			t.Errorf("%s: program/iterations %q/%d, want %q/%d",
				tc.name, got.Program, got.Iterations, model.Params().Program, model.Params().Iterations)
		}
		wantDist := tc.d
		if wantDist == nil {
			wantDist = blk
		}
		if !dist.Distribution(got.Dist).Equal(wantDist) {
			t.Errorf("%s: dist %v, want %v", tc.name, got.Dist, wantDist)
		}
	}
}

// TestWarmRequestBuildsNoApp pins resolveScenario's engine lookup:
// once a scenario has an engine, resolving it again returns the
// engine's own application and builds nothing (no allocation at all),
// while a scenario without one still builds a fresh application.
func TestWarmRequestBuildsNoApp(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, data := postJSON(t, ts.URL+"/predict", PredictRequest{scenarioWire: testWire()}); code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", code, data)
	}
	scen, _, app, err := srv.resolveScenario(testWire())
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	e := srv.engines[scen]
	srv.mu.Unlock()
	if e == nil || app != e.app {
		t.Fatal("a warm scenario did not resolve to its engine's application")
	}
	if n := testing.AllocsPerRun(20, func() { srv.resolveScenario(testWire()) }); n != 0 {
		t.Fatalf("warm resolve allocates %v times, want 0 (no Build)", n)
	}
	cold := testWire()
	cold.App = "rna"
	_, _, a1, _ := srv.resolveScenario(cold)
	_, _, a2, _ := srv.resolveScenario(cold)
	if a1 == nil || a1 == a2 {
		t.Fatal("a scenario without an engine did not build its application")
	}
}

// TestPredictDetailedMatchesModel pins the detailed fields against
// PredictDetailed on a reference model.
func TestPredictDetailedMatchesModel(t *testing.T) {
	model, app, spec := refModel(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blk := mheta.BlockDistribution(app, spec)
	want := model.PredictDetailed(blk)
	code, data := postJSON(t, ts.URL+"/predict", PredictRequest{scenarioWire: testWire(), Detailed: true})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	got := decode[PredictResponse](t, data)
	if got.TotalS != want.Total || got.PerIterationS != want.PerIteration {
		t.Errorf("total/per-iteration %v/%v, want %v/%v", got.TotalS, got.PerIterationS, want.Total, want.PerIteration)
	}
	if !reflect.DeepEqual(got.NodeTimesS, want.NodeTimes) {
		t.Errorf("node times %v, want %v", got.NodeTimesS, want.NodeTimes)
	}
	if !reflect.DeepEqual(got.SectionTimesS, want.SectionTimes) {
		t.Errorf("section times %v, want %v", got.SectionTimesS, want.SectionTimes)
	}
}

// TestPredictRejects covers the 400 surface: every malformed request is
// refused before any model time is spent.
func TestPredictRejects(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
	}{
		{"bad-json", `{"app": `},
		{"unknown-field", `{"app":"jacobi","config":"HY1","scale":"test","semed":7}`},
		{"missing-app", `{"config":"HY1","scale":"test"}`},
		{"unknown-app", `{"app":"nope","config":"HY1","scale":"test"}`},
		{"unknown-config", `{"app":"jacobi","config":"XX","scale":"test"}`},
		{"unknown-scale", `{"app":"jacobi","config":"HY1","scale":"huge"}`},
		{"bad-dist", `{"app":"jacobi","config":"HY1","scale":"test","dist":[1,2,3]}`},
		// Right sum (768 elements), wrong node count (HY1 has 8).
		{"short-dist", `{"app":"jacobi","config":"HY1","scale":"test","dist":[768,0,0]}`},
		{"long-dist", `{"app":"jacobi","config":"HY1","scale":"test","dist":[96,96,96,96,96,96,96,96,0]}`},
		{"short-dist-detailed", `{"app":"jacobi","config":"HY1","scale":"test","dist":[768,0,0],"detailed":true}`},
		{"trailing-data", `{"app":"jacobi","config":"HY1","scale":"test"} trailing`},
	} {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
	}
	if n := srv.mEngines.Value(); n != 0 {
		t.Errorf("serve.engines.built = %d after only malformed requests, want 0", n)
	}

	// Wrong method never reaches a handler.
	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d, want 405", resp.StatusCode)
	}
}

// TestPredictShedsWhenQueueFull takes every predict slot
// deterministically — two requests are parked on a test hook with their
// slots held (QueueDepth 2) — and demands the next request shed with 429
// instead of blocking.
func TestPredictShedsWhenQueueFull(t *testing.T) {
	var gate atomic.Bool
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv := New(Config{QueueDepth: 2})
	srv.testHookPredict = func() {
		if !gate.Load() {
			return
		}
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Warm up: builds the engine without the hook in play.
	if code, data := postJSON(t, ts.URL+"/predict", PredictRequest{scenarioWire: testWire()}); code != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", code, data)
	}
	gate.Store(true)

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if codes[i], _, err = post(ts.URL+"/predict", PredictRequest{scenarioWire: testWire()}); err != nil {
				t.Error(err)
			}
		}(i)
		<-entered // request i holds a slot inside the hook
	}

	code, data := postJSON(t, ts.URL+"/predict", PredictRequest{scenarioWire: testWire()})
	if code != http.StatusTooManyRequests {
		t.Errorf("over-capacity request: status %d (%s), want 429", code, data)
	}

	gate.Store(false)
	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("parked request %d: status %d, want 200", i, c)
		}
	}
	if srv.mShed.Value() == 0 {
		t.Error("serve.predict.shed counter did not move")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSearchMatchesDirect pins /search against the exact CLI call chain
// (mheta.SearchWithOptions on a fresh instrument) for every algorithm,
// and demands the ignored workers field not change a single bit.
func TestSearchMatchesDirect(t *testing.T) {
	model, app, spec := refModel(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blk := mheta.BlockDistribution(app, spec)
	blkPred := model.Clone().Predict(blk).Total
	for _, alg := range []string{mheta.AlgGBS, mheta.AlgGenetic, mheta.AlgAnnealing, mheta.AlgRandom} {
		want, err := mheta.SearchWithOptions(alg, spec, app, model.Clone(), 42, mheta.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 3} {
			code, data := postJSON(t, ts.URL+"/search", SearchRequest{scenarioWire: testWire(), Alg: alg, Workers: workers})
			if code != http.StatusOK {
				t.Fatalf("%s/w%d: status %d: %s", alg, workers, code, data)
			}
			got := decode[SearchResponse](t, data)
			if got.Algorithm != want.Algorithm || got.TimeS != want.Time ||
				got.Evaluations != want.Evaluations || !dist.Distribution(got.Best).Equal(want.Best) {
				t.Errorf("%s/w%d: result %+v, want %+v", alg, workers, got, want)
			}
			if got.BlkTimeS != blkPred || !dist.Distribution(got.Blk).Equal(blk) {
				t.Errorf("%s/w%d: blk %v/%v, want %v/%v", alg, workers, got.Blk, got.BlkTimeS, blk, blkPred)
			}
		}
	}

	code, data := postJSON(t, ts.URL+"/search", SearchRequest{scenarioWire: testWire(), Alg: "simplex"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown alg: status %d (%s), want 400", code, data)
	}
}

// TestSearchRejects pins the strict body decoding on /search: trailing
// data after the JSON value is a 400, not silently ignored.
func TestSearchRejects(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"app":"jacobi","config":"HY1","scale":"test"} trailing`
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data: status %d (%s), want 400", resp.StatusCode, data)
	}
}

// TestSearchDeadlineCancelsMidSearch parks a search on the test hook
// until its own deadline fires, then demands the search abort with 504
// instead of running to completion.
func TestSearchDeadlineCancelsMidSearch(t *testing.T) {
	srv := New(Config{})
	srv.testHookSearchStarted = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, data := postJSON(t, ts.URL+"/search", SearchRequest{scenarioWire: testWire(), TimeoutMS: 5000})
	// The engine build shares the request deadline; 5s is plenty at test
	// scale, so the hook — not the build — consumes the deadline.
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, data)
	}
	if srv.mSearchCanceled.Value() == 0 {
		t.Error("serve.search.canceled counter did not move")
	}
}

// TestSearchShedsWhenBacklogFull fills the one running slot and the one
// backlog slot with hook-parked searches, then demands the third shed
// with 429 and the parked ones complete once released.
func TestSearchShedsWhenBacklogFull(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv := New(Config{MaxSearches: 1, SearchBacklog: 1})
	srv.testHookSearchStarted = func(context.Context) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if codes[0], _, err = post(ts.URL+"/search", SearchRequest{scenarioWire: testWire()}); err != nil {
			t.Error(err)
		}
	}()
	<-entered // search 0 holds the slot inside the hook
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if codes[1], _, err = post(ts.URL+"/search", SearchRequest{scenarioWire: testWire()}); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "backlogged search", func() bool { return srv.searchWaiters.Load() == 2 })

	code, data := postJSON(t, ts.URL+"/search", SearchRequest{scenarioWire: testWire()})
	if code != http.StatusTooManyRequests {
		t.Errorf("over-backlog search: status %d (%s), want 429", code, data)
	}

	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("parked search %d: status %d, want 200", i, c)
		}
	}
	if srv.mSearchShed.Value() == 0 {
		t.Error("serve.search.shed counter did not move")
	}
}

// TestShutdownDrains pins the graceful-shutdown contract: once Shutdown
// begins, new requests get 503, but it does not return until the
// in-flight search — parked on the hook — has completed with 200.
func TestShutdownDrains(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := New(Config{})
	srv.testHookSearchStarted = func(context.Context) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		code int
		data []byte
	}
	searchDone := make(chan result, 1)
	go func() {
		code, data, err := post(ts.URL+"/search", SearchRequest{scenarioWire: testWire()})
		if err != nil {
			t.Error(err)
		}
		searchDone <- result{code, data}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// New work is refused as soon as shutdown flips the flag.
	waitFor(t, "503 on new requests", func() bool {
		code, _ := postJSON(t, ts.URL+"/predict", PredictRequest{scenarioWire: testWire()})
		return code == http.StatusServiceUnavailable
	})
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a search still in flight", err)
	case <-searchDone:
		t.Fatal("search completed before release")
	default:
	}

	close(release)
	res := <-searchDone
	if res.code != http.StatusOK {
		t.Fatalf("drained search: status %d (%s), want 200", res.code, res.data)
	}
	got := decode[SearchResponse](t, res.data)
	if len(got.Best) == 0 || got.Evaluations == 0 {
		t.Errorf("drained search returned an empty result: %+v", got)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestSearchDeadlineWhileWaitingForSlot pins the backlog wait's bound: a
// search queued behind a running one answers 504 when its own deadline
// passes, without waiting for the slot to free.
func TestSearchDeadlineWhileWaitingForSlot(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := New(Config{MaxSearches: 1, SearchBacklog: 1})
	srv.testHookSearchStarted = func(context.Context) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	running := make(chan int, 1)
	go func() {
		code, _, err := post(ts.URL+"/search", SearchRequest{scenarioWire: testWire()})
		if err != nil {
			t.Error(err)
		}
		running <- code
	}()
	<-entered // the running slot is taken until release

	queued := make(chan int, 1)
	go func() {
		code, _, err := post(ts.URL+"/search", SearchRequest{scenarioWire: testWire(), TimeoutMS: 100})
		if err != nil {
			t.Error(err)
		}
		queued <- code
	}()
	select {
	case code := <-queued:
		if code != http.StatusGatewayTimeout {
			t.Errorf("queued search: status %d, want 504", code)
		}
	case <-time.After(10 * time.Second):
		t.Error("queued search outlived its 100ms deadline waiting for a slot")
	}
	close(release)
	if code := <-running; code != http.StatusOK {
		t.Errorf("running search: status %d, want 200", code)
	}
	if srv.mSearchCanceled.Value() == 0 {
		t.Error("serve.search.canceled counter did not move")
	}
}

// TestShutdownReturnsAtDeadline pins Shutdown's bound: with a search
// still in flight, it returns its context's error once that deadline
// passes instead of waiting out the drain.
func TestShutdownReturnsAtDeadline(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := New(Config{})
	srv.testHookSearchStarted = func(context.Context) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	searchDone := make(chan int, 1)
	go func() {
		code, _, err := post(ts.URL+"/search", SearchRequest{scenarioWire: testWire()})
		if err != nil {
			t.Error(err)
		}
		searchDone <- code
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Shutdown = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Shutdown outlived its 50ms deadline while a search was in flight")
	}
	close(release)
	if code := <-searchDone; code != http.StatusOK {
		t.Errorf("in-flight search: status %d, want 200", code)
	}
}

// TestDeadlineDuringEngineBuild pins that the engine-build wait shares
// the request deadline: on a cold scenario whose build outlasts a 1ms
// deadline, /predict and /search answer 504, and the search never
// starts on the engine.
func TestDeadlineDuringEngineBuild(t *testing.T) {
	var started atomic.Bool
	srv := New(Config{})
	srv.testHookSearchStarted = func(context.Context) { started.Store(true) }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A "quick"-scale build instruments for tens of milliseconds; each
	// request gets a scenario of its own, so each waits on a fresh build.
	cold := func(seed uint64) scenarioWire {
		return scenarioWire{App: "jacobi", Config: "HY1", Scale: "quick", Seed: &seed}
	}
	if code, data := postJSON(t, ts.URL+"/predict", PredictRequest{scenarioWire: cold(1), TimeoutMS: 1}); code != http.StatusGatewayTimeout {
		t.Errorf("predict during build: status %d (%s), want 504", code, data)
	}
	if code, data := postJSON(t, ts.URL+"/search", SearchRequest{scenarioWire: cold(2), TimeoutMS: 1}); code != http.StatusGatewayTimeout {
		t.Errorf("search during build: status %d (%s), want 504", code, data)
	}
	if started.Load() {
		t.Error("the search started on the engine after its deadline had passed")
	}
	// Join the build before the next test counts goroutines.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPredictConcurrentSharedMemo is the -race workout: many concurrent
// /predict requests over a handful of distinct distributions must all
// come back bit-identical to the reference model, served through the
// shared memo (which the hit counter proves was actually exercised).
func TestPredictConcurrentSharedMemo(t *testing.T) {
	model, app, spec := refModel(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blk := mheta.BlockDistribution(app, spec)
	dists := make([]dist.Distribution, 4)
	wants := make([]float64, len(dists))
	for i := range dists {
		d := blk.Clone()
		d[0] -= i
		d[len(d)-1] += i
		dists[i] = d
		wants[i] = model.PredictTotal(d)
	}

	const requests = 64
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % len(dists)
			code, data, err := post(ts.URL+"/predict",
				PredictRequest{scenarioWire: testWire(), Dist: dists[k], Detailed: i%7 == 0})
			if err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			if code != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, code, data)
				return
			}
			var got PredictResponse
			if err := json.Unmarshal(data, &got); err != nil {
				errs <- fmt.Errorf("request %d: decode %s: %v", i, data, err)
				return
			}
			if got.TotalS != wants[k] {
				errs <- fmt.Errorf("request %d: total %v, want %v", i, got.TotalS, wants[k])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The metrics endpoint proves the shared-memo path did the work:
	// 64 requests over 4 distributions can miss at most a few times.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("metrics content-type %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	snap := decode[obs.Snapshot](t, data)
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["serve.predict.requests"] != requests {
		t.Errorf("serve.predict.requests = %d, want %d", counters["serve.predict.requests"], requests)
	}
	if counters["search.memo.hits"] == 0 {
		t.Error("search.memo.hits = 0: the shared memo saw no reuse")
	}
	if counters["search.memo.misses"] > int64(len(dists)) {
		t.Errorf("search.memo.misses = %d, want <= %d (one per distinct distribution)",
			counters["search.memo.misses"], len(dists))
	}
}
