package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mheta/internal/experiments"
)

// serveBin is an mheta-serve binary built once for the smoke tests.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mheta-bench-test")
	if err != nil {
		panic(err)
	}
	serveBin = filepath.Join(dir, "mheta-serve")
	build := exec.Command("go", "build", "-o", serveBin, "mheta/cmd/mheta-serve")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{hundred, 0.5, 50.5},
		{hundred, 0.99, 99.01},
	} {
		if got := percentile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}

// streamBytes renders the first n requests of every seeded stream.
func streamBytes(seed uint64, n int) []byte {
	var out []byte
	for _, ps := range []*predictStream{hotStream(seed), spreadStream(seed)} {
		for i := int64(0); i < int64(n); i++ {
			out = ps.appendBody(out, ps.at(i))
			out = append(out, '\n')
		}
	}
	for _, q := range searchCycle(seed) {
		out = appendSearchBody(out, q)
		out = append(out, '\n')
	}
	return out
}

func TestRequestStreamIsSeeded(t *testing.T) {
	a, b := streamBytes(1, 500), streamBytes(1, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if bytes.Equal(a, streamBytes(2, 500)) {
		t.Fatal("different seeds gave the same request stream")
	}
	ps := spreadStream(1)
	detailed := 0
	for i := int64(0); i < 500; i++ {
		q := ps.at(i)
		if err := q.d.Validate(ps.totals[q.scen]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if q.detailed {
			detailed++
		}
	}
	if detailed < 25 || detailed > 75 {
		t.Errorf("%d of 500 requests detailed, want about 50", detailed)
	}
	hot := hotStream(1)
	for i := int64(0); i < 16; i++ {
		if err := hot.at(i).d.Validate(hot.totals[0]); err != nil {
			t.Fatalf("hot request %d: %v", i, err)
		}
	}
}

func TestDigestDetectsOneULP(t *testing.T) {
	app, spec, d := emulateInputs()
	ref, err := emulate(app, spec, d, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	key := "emulate-10k/seed=1"
	rep := newReport(io.Discard)
	checkDigest(rep, key, ref.words())
	if rep.attempted != 1 || rep.failed != 0 {
		t.Fatalf("recorded digest: attempted %d, failed %d; want 1, 0", rep.attempted, rep.failed)
	}
	ref.time = math.Nextafter(ref.time, math.Inf(1))
	checkDigest(rep, key, ref.words())
	if rep.failed != 1 {
		t.Fatal("a one-ULP change of the virtual time did not fail the digest check")
	}
	rep = newReport(io.Discard)
	checkDigest(rep, "emulate-10k/seed=999", ref.words())
	if rep.attempted != 0 {
		t.Fatal("a seed without a recorded digest was checked")
	}
}

// benchmarkDefinition is the part of BENCHMARK.json the smoke test
// checks the output against.
type benchmarkDefinition struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every metric BENCHMARK.json names is printed with its unit and
// that no operation failed. Set-up runs once and the sweep uses test
// scale to keep the test short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and emulates")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDefinition
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 3, seconds: 0.2, serveBin: serveBin, setups: 1,
				sweepScale: experiments.ScaleTest, log: io.Discard}
			want := def.EndToEnd
			if traced {
				e.tr = newTracer()
				want = def.PerLayer
			}
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			var out bytes.Buffer
			if code := execute(context.Background(), w, e, tracePath, &out); code != 0 {
				t.Fatalf("%s traced=%v: exit code %d", w, traced, code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if traced {
				checkChromeTrace(t, tracePath)
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("%s has no complete events", path)
	}
}
