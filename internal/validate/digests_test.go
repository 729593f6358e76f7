package validate

// Emulator digests: the emulator's complete observable output, frozen
// as SHA-256 digests in testdata/emulator_digests.json. The file was
// recorded from the emulator's original goroutine-per-rank core, which
// had been proved bit-identical to the event-driven core that replaced
// it; every check below holds today's emulator to that recorded verdict.
// Identity is exact — clocks are compared through math.Float64bits —
// because a run is a deterministic function of its inputs, so any
// divergence is a behaviour change, not rounding. The digests are exact
// on linux/amd64; another platform's FMA contraction or libm may move a
// last bit.
//
// Each run case digests the Float64bits of NodeTimes, Time and
// PerIteration; the canonical span list and the Chrome trace bytes
// (traced runs); and the MPI-Jack recorders, serialised with sorted keys
// and Float64bits (instrument runs). Collect cases digest paramfile.Encode(instrument.Collect(...)),
// which pins the micro-benchmarks' NetParams/DiskCal bit for bit.
//
// Regenerate only for an intentional behaviour change, and say so in
// the commit:
//
//	go test ./internal/validate -run TestEmulatorDigests -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/mpijack"
	"mheta/internal/paramfile"
	"mheta/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/emulator_digests.json")

const digestPath = "testdata/emulator_digests.json"

// runDigest is one case's recorded output. Fields a case does not
// produce stay empty: untraced runs have no spans or Chrome bytes,
// plain runs no recorders, Collect cases only Params.
type runDigest struct {
	Times     string `json:"times,omitempty"`
	Spans     string `json:"spans,omitempty"`
	Chrome    string `json:"chrome,omitempty"`
	Recorders string `json:"recorders,omitempty"`
	Params    string `json:"params,omitempty"`
}

// digestCase is one entry of the digest matrix. group names the test
// that checks it, sub its subtest there; key is group/sub/name.
type digestCase struct {
	group, sub, name string
	run              func(t *testing.T) runDigest
}

func (c digestCase) key() string { return c.group + "/" + c.sub + "/" + c.name }

// digestCases enumerates the whole matrix: every corpus case as a
// traced run, six apps on the four Table 1 archetypes (traced), six
// apps on HY1(6) in instrument mode, and Collect for six apps on the
// four archetypes at test scale.
func digestCases() []digestCase {
	var cases []digestCase
	for _, seed := range CorpusSeeds() {
		sc := GenScenario(seed)
		for i, c := range sc.Cases {
			d := c.Dist
			cases = append(cases, digestCase{
				group: "corpus", sub: fmt.Sprintf("seed=%d", seed), name: fmt.Sprintf("%02d:%s", i, c.Name),
				run: func(t *testing.T) runDigest {
					return emulate(t, sc.Spec, sc.App, d, sc.Seed^0xACDC, exec.ModeRun)
				},
			})
		}
	}
	for _, name := range AppNames() {
		for _, spec := range cluster.NamedAll() {
			cases = append(cases, digestCase{
				group: "apps", sub: name, name: spec.Name,
				run: func(t *testing.T) runDigest {
					app := buildApp(name, newRng(0xA99^uint64(len(name))))
					d := dist.Block(app.Prog.GlobalElems(), spec.N())
					return emulate(t, spec, app, d, 0xC0FFEE, exec.ModeRun)
				},
			})
		}
	}
	for _, name := range AppNames() {
		cases = append(cases, digestCase{
			group: "instrument", sub: name, name: "HY1x6",
			run: func(t *testing.T) runDigest {
				app := buildApp(name, newRng(0xD1f^uint64(len(name))))
				spec := cluster.HY1(6)
				d := dist.Block(app.Prog.GlobalElems(), spec.N())
				return emulate(t, spec, app, d, 0x5EED, exec.ModeInstrument)
			},
		})
	}
	for _, name := range AppNames() {
		for _, spec := range cluster.NamedAll() {
			cases = append(cases, digestCase{
				group: "collect", sub: name, name: spec.Name,
				run: func(t *testing.T) runDigest {
					return collect(t, name, spec)
				},
			})
		}
	}
	return cases
}

// emulate executes (spec, app, d) on a fresh world and digests its
// output. Plain runs collect a trace; instrument runs collect recorders
// instead (the profiler slot belongs to MPI-Jack there).
func emulate(t *testing.T, spec cluster.Spec, app *exec.App, d dist.Distribution, seed uint64, mode exec.Mode) runDigest {
	t.Helper()
	w := mpi.NewWorld(spec, seed, Noise)
	opts := exec.Options{Mode: mode}
	var tr *trace.Trace
	if mode == exec.ModeRun {
		tr = trace.New()
		opts.Trace = tr
	}
	res, err := exec.Run(w, app, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, x := range res.NodeTimes {
		writeBits(h, x)
	}
	writeBits(h, res.Time)
	writeBits(h, res.PerIteration)
	out := runDigest{Times: sum(h)}
	if tr != nil {
		h.Reset()
		for _, s := range canonSpans(tr.Spans()) {
			fmt.Fprintf(h, "%d %d %q %x %x %d\n", s.Rank, s.Kind, s.Label,
				math.Float64bits(float64(s.Start)), math.Float64bits(float64(s.End)), s.Peer)
		}
		out.Spans = sum(h)
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("chrome export: %v", err)
		}
		c := sha256.Sum256(buf.Bytes())
		out.Chrome = hex.EncodeToString(c[:])
	}
	if mode == exec.ModeInstrument {
		out.Recorders = recordersDigest(res.Recorders)
	}
	return out
}

// collect digests the encoded parameter file instrument.Collect derives
// for app on spec under Blk at test scale.
func collect(t *testing.T, name string, spec cluster.Spec) runDigest {
	t.Helper()
	b, err := experiments.BuilderByName(name)
	if err != nil {
		t.Fatal(err)
	}
	app := b.Build(experiments.ScaleTest)
	p, err := instrument.Collect(spec, app, dist.Block(app.Prog.GlobalElems(), spec.N()), 0x8E7A, Noise)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := paramfile.Encode(&buf, &p); err != nil {
		t.Fatal(err)
	}
	c := sha256.Sum256(buf.Bytes())
	return runDigest{Params: hex.EncodeToString(c[:])}
}

// recordersDigest serialises every rank's recorder — each map's entries
// as sorted lines, durations as Float64bits — and hashes the result.
func recordersDigest(recs []*mpijack.Recorder) string {
	h := sha256.New()
	for _, rec := range recs {
		var lines []string
		for k, r := range rec.IO {
			lines = append(lines, fmt.Sprintf("io %s %d %d %d %d %x %x %x %d %d", k,
				r.ReadCalls, r.WriteCalls, r.ReadBytes, r.WriteBytes,
				math.Float64bits(float64(r.ReadTime)), math.Float64bits(float64(r.WriteTime)),
				math.Float64bits(float64(r.OverlapCompute)), r.OverlapElems, r.PrefetchIssues))
		}
		for k, c := range rec.Comm {
			var peers []int
			for p := range c.Peers {
				peers = append(peers, p)
			}
			slices.Sort(peers)
			lines = append(lines, fmt.Sprintf("comm %v %d %d %d %d %x %x %x %v %d %d %x", k,
				c.Sends, c.Recvs, c.SendBytes, c.RecvBytes,
				math.Float64bits(float64(c.SendTime)), math.Float64bits(float64(c.RecvTime)),
				math.Float64bits(float64(c.WaitTime)), peers,
				c.Reductions, c.ReduceBytes, math.Float64bits(float64(c.ReduceTime))))
		}
		for k, d := range rec.StageSpans {
			lines = append(lines, fmt.Sprintf("span %v %x", k, math.Float64bits(float64(d))))
		}
		slices.Sort(lines)
		fmt.Fprintf(h, "rank %d\n", rec.Rank)
		for _, l := range lines {
			io.WriteString(h, l+"\n")
		}
	}
	return sum(h)
}

func writeBits(h hash.Hash, x float64) { fmt.Fprintf(h, "%x\n", math.Float64bits(x)) }

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// canonSpans sorts spans by a full total order, so the digest does not
// depend on the order ranks appended them.
func canonSpans(spans []trace.Span) []trace.Span {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Peer < b.Peer
	})
	return spans
}

var recorded = sync.OnceValues(func() (map[string]runDigest, error) {
	b, err := os.ReadFile(digestPath)
	if err != nil {
		return nil, err
	}
	var m map[string]runDigest
	return m, json.Unmarshal(b, &m)
})

// checkGroup runs every case of one group against the recorded digests,
// one parallel subtest per sub.
func checkGroup(t *testing.T, group string) {
	if *update {
		t.Skip("regenerating the digests (TestEmulatorDigests)")
	}
	want, err := recorded()
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -run TestEmulatorDigests -update)", digestPath, err)
	}
	subs := map[string][]digestCase{}
	var order []string
	for _, c := range digestCases() {
		if c.group != group {
			continue
		}
		if subs[c.sub] == nil {
			order = append(order, c.sub)
		}
		subs[c.sub] = append(subs[c.sub], c)
	}
	for _, sub := range order {
		cases := subs[sub]
		t.Run(sub, func(t *testing.T) {
			t.Parallel()
			for _, c := range cases {
				w, ok := want[c.key()]
				if !ok {
					t.Fatalf("%s: no recorded digest", c.key())
				}
				if got := c.run(t); got != w {
					t.Fatalf("%s:\n  got      %+v\n  recorded %+v", c.key(), got, w)
				}
			}
		})
	}
}

// TestEmulatorDigests pins the digest file itself: its entries are
// exactly the matrix digestCases enumerates, and the Collect digests
// reproduce. With -update it regenerates the whole file instead.
func TestEmulatorDigests(t *testing.T) {
	cases := digestCases()
	if *update {
		out := make(map[string]runDigest, len(cases))
		for _, c := range cases {
			out[c.key()] = c.run(t)
		}
		b, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := recorded()
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", digestPath, err)
	}
	keys := make(map[string]bool, len(cases))
	for _, c := range cases {
		keys[c.key()] = true
	}
	for k := range want {
		if !keys[k] {
			t.Errorf("%s: stale entry %s", digestPath, k)
		}
	}
	if len(want) != len(keys) {
		t.Errorf("%s has %d entries, the matrix %d", digestPath, len(want), len(keys))
	}
	t.Run("collect", func(t *testing.T) { checkGroup(t, "collect") })
}

// TestEngineEquivalenceCorpus holds every distribution case of every
// committed corpus seed to the recorded clocks, spans and Chrome bytes. It is the seed set the accuracy corpus pins, so
// every scenario shape the repo knows about (all apps, all archetype
// kinds, shared disks, adversarial distributions) is covered.
func TestEngineEquivalenceCorpus(t *testing.T) { checkGroup(t, "corpus") }

// TestEngineEquivalenceApps pins the explicit matrix the corpus samples
// probabilistically: all six applications on all four Table 1 cluster
// archetypes at the paper's eight-node scale, block distribution.
func TestEngineEquivalenceApps(t *testing.T) { checkGroup(t, "apps") }

// TestEngineEquivalenceInstrument pins the MPI-Jack instrumented
// iteration — the model's measurement source: I/O timings, per-call
// Wait fields carrying message timestamps, and stage spans.
func TestEngineEquivalenceInstrument(t *testing.T) { checkGroup(t, "instrument") }
