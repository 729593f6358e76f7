package main

import (
	"context"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
	"mheta/internal/sched"
	"mheta/internal/stats"
)

// digestsJSON holds the emulator outputs recorded at defaultSeed, keyed
// by workload (and scale), as FNV-1a digests of their Float64bits.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// digest hashes a sequence of 64-bit words.
func digest(words []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkDigest logs the digest of words and, when testdata/digests.json
// records one for key, counts the comparison as an operation.
func checkDigest(rep *report, key string, words []uint64) {
	got := digest(words)
	fmt.Fprintf(rep.log, "digest %s = %s\n", key, got)
	var recorded map[string]string
	err := json.Unmarshal(digestsJSON, &recorded)
	if want, known := recorded[key]; known || err != nil {
		rep.op(err == nil && got == want, "%s: digest %s, testdata/digests.json has %s (%v)", key, got, want, err)
	}
}

// emulateRanks is the emulate-10k world size: nearest-neighbour Jacobi
// with 2 rows per rank, 4 columns and 2 iterations, so per-rank work is
// tiny and the scheduler, mailboxes and per-rank set-up dominate.
const emulateRanks = 10000

func emulateInputs() (*exec.App, cluster.Spec, dist.Distribution) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 2*emulateRanks, 4, 2
	spec := cluster.DC(emulateRanks)
	for i := range spec.Nodes {
		spec.Nodes[i] = cluster.NodeSpec{CPUPower: 1, MemoryBytes: 1 << 20, DiskScale: 1}
	}
	return apps.NewJacobi(cfg), spec, dist.Block(cfg.Rows, emulateRanks)
}

// emulation is one run's outputs: the virtual time and the scheduler's
// counters, which repeat exactly for a given seed.
type emulation struct {
	time  float64
	stats sched.Stats
}

func (r emulation) words() []uint64 {
	s := r.stats
	return []uint64{math.Float64bits(r.time), s.Events, s.Sends, s.Parks, s.Wakes, uint64(s.MaxHeap)}
}

func emulate(app *exec.App, spec cluster.Spec, d dist.Distribution, seed uint64) (emulation, error) {
	var st sched.Stats
	w := mpi.NewWorld(spec, seed, 0.02)
	res, err := exec.Run(w, app, d, exec.Options{EventStats: &st})
	return emulation{time: res.Time, stats: st}, err
}

// runEmulate runs the emulate-10k workload: fresh world and run, one
// after another, for the whole run. Set-up (inputs plus one untimed
// run, whose output is the reference) is repeated for setup_s.
func runEmulate(ctx context.Context, e *env) (*report, error) {
	rep := newReport(e.log)
	var (
		app   *exec.App
		spec  cluster.Spec
		d     dist.Distribution
		ref   emulation
		setup []float64
	)
	for r := 0; e.moreSetups(setup); r++ {
		t0 := time.Now()
		app, spec, d = emulateInputs()
		got, err := emulate(app, spec, d, e.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if r == 0 {
			ref = got
		}
		rep.op(got == ref, "set-up run %d: %+v, want %+v", r, got, ref)
	}
	key := fmt.Sprintf("emulate-10k/seed=%d", e.seed)
	checkDigest(rep, key, ref.words())
	if e.tr != nil {
		return rep, traceEmulate(ctx, e, rep, app, spec, d, ref)
	}

	var lat []float64
	var work, busy float64
	for end := time.Now().Add(time.Duration(e.seconds * float64(time.Second))); len(lat) == 0 || time.Now().Before(end); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		got, err := emulate(app, spec, d, e.seed)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		lat = append(lat, dt*1e3)
		busy += dt
		work += float64(got.stats.Events + got.stats.Sends)
		rep.op(got == ref, "run %d: %+v, want %+v", len(lat), got, ref)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "emulate-10k: setup %d×, %d timed runs of %d events+sends\n",
		len(setup), len(lat), ref.stats.Events+ref.stats.Sends)
	rep.set("setup_s", stats.Median(setup))
	rep.setLatency(lat, 0.9)
	rep.set("work_per_s", work/busy)
	rep.set("peak_rss_mb", rss)
	return rep, nil
}

// traceEmulate alternates untraced runs with traced ones, which span
// mpi.NewWorld and exec.Run and count their allocations.
func traceEmulate(ctx context.Context, e *env, rep *report, app *exec.App, spec cluster.Spec, d dist.Distribution, ref emulation) error {
	var plain, traced, worldAllocs, runAllocs, runBytes []float64
	var m0, m1, m2 runtime.MemStats
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for n := int64(0); ctx.Err() == nil && (n == 0 || time.Now().Before(deadline)); n++ {
		t0 := time.Now()
		got, err := emulate(app, spec, d, e.seed)
		plain = append(plain, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		rep.op(got == ref, "untraced run: %+v, want %+v", got, ref)

		var st sched.Stats
		t0 = time.Now()
		root := e.tr.begin("emulate.run", -1, n)
		runtime.ReadMemStats(&m0)
		sp := e.tr.begin("mpi.new_world", root, n)
		w := mpi.NewWorld(spec, e.seed, 0.02)
		e.tr.end(sp)
		runtime.ReadMemStats(&m1)
		sp = e.tr.begin("exec.run", root, n)
		res, err := exec.Run(w, app, d, exec.Options{EventStats: &st})
		e.tr.end(sp)
		runtime.ReadMemStats(&m2)
		e.tr.end(root)
		traced = append(traced, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		worldAllocs = append(worldAllocs, float64(m1.Mallocs-m0.Mallocs))
		runAllocs = append(runAllocs, float64(m2.Mallocs-m1.Mallocs))
		runBytes = append(runBytes, float64(m2.TotalAlloc-m1.TotalAlloc))
		got = emulation{time: res.Time, stats: st}
		rep.op(got == ref, "traced run: %+v, want %+v", got, ref)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st := e.tr.stats()
	events := float64(ref.stats.Events + ref.stats.Sends)
	rep.set("mpi.new_world_ms", st.meanUS("mpi.new_world")/1e3)
	rep.set("mpi.new_world_allocs", stats.Mean(worldAllocs))
	rep.set("exec.run_ms", st.meanUS("exec.run")/1e3)
	rep.set("exec.run_allocs", stats.Mean(runAllocs))
	rep.set("exec.run_alloc_mb", stats.Mean(runBytes)/(1<<20))
	rep.set("exec.ns_per_event", st.meanUS("exec.run")*1e3/events)
	rep.set("sched.events", float64(ref.stats.Events))
	rep.set("sched.sends", float64(ref.stats.Sends))
	rep.set("sched.parks", float64(ref.stats.Parks))
	rep.set("sched.wakes", float64(ref.stats.Wakes))
	rep.set("trace.overhead_pct", overheadPct(plain, traced))
	rep.set("trace.coverage_pct", 100*st.layerUS("emulate.run")/st.meanUS("emulate.run"))
	fmt.Fprintf(e.log, "emulate-10k traced: %d untraced and %d traced runs, interleaved\n", len(plain), len(traced))
	return nil
}
