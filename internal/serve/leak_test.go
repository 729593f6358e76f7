package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stableGoroutines samples runtime.NumGoroutine until two consecutive
// reads agree, retrying with short sleeps so goroutines still winding
// down (finished handlers, closed keep-alive connections) don't count as
// leaks. It returns the last stable reading; if the count never settles
// within the retry budget the final sample is returned and the caller's
// comparison will fail loudly.
func stableGoroutines() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestNoGoroutineLeakAfterBurstAndDrain is the dynamic complement to the
// static leakcheck analyzer: a concurrent predict burst (which forces an
// engine build goroutine) followed by Shutdown must return the process
// to its pre-server goroutine count. Growth here means an admission
// waiter, build goroutine or HTTP connection outlived the drain contract.
func TestNoGoroutineLeakAfterBurstAndDrain(t *testing.T) {
	base := stableGoroutines()

	srv := New(Config{})
	ts := httptest.NewServer(srv)

	// Burst: 16 concurrent predicts, all through the shared engine and
	// its memo.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, data, err := post(ts.URL+"/predict", PredictRequest{scenarioWire: testWire()})
			if err != nil {
				t.Error(err)
				return
			}
			if code != http.StatusOK {
				t.Errorf("predict status %d: %s", code, data)
			}
		}()
	}
	wg.Wait()

	// Keep-alive connections are expected to be alive while the server
	// is up — the during-count just documents that the burst actually
	// spawned machinery to tear down.
	during := stableGoroutines()
	if during <= base {
		t.Logf("during=%d base=%d: engine machinery already quiesced", during, base)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	after := stableGoroutines()
	if after > base {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines grew: base=%d after=%d\n%s", base, after, buf[:n])
	}
}

// TestSearchWorkersBounded pins the deprecated, ignored workers field: a
// huge value returns exactly the workers=1 bits and starts no goroutine
// that outlives the request, and a negative value is rejected with 400.
func TestSearchWorkersBounded(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	search := func(workers int) (int, []byte) {
		return postJSON(t, ts.URL+"/search", SearchRequest{scenarioWire: testWire(), Alg: "genetic", Workers: workers})
	}
	code, want := search(1) // also builds the engine
	if code != http.StatusOK {
		t.Fatalf("workers=1: status %d: %s", code, want)
	}
	base := stableGoroutines()
	code, got := search(100_000_000)
	if code != http.StatusOK {
		t.Fatalf("workers=1e8: status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("workers=1e8 answered %s, want the workers=1 answer %s", got, want)
	}
	if after := stableGoroutines(); after > base {
		t.Errorf("goroutines grew across the search: base=%d after=%d", base, after)
	}
	if code, data := search(-1); code != http.StatusBadRequest {
		t.Errorf("workers=-1: status %d (%s), want 400", code, data)
	}
}
