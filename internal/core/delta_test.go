package core

import (
	"math"
	"testing"

	"mheta/internal/program"
)

// deltaParams builds a two-node parameter set exercising every comm
// pattern plus a prefetching out-of-core stage, so the delta cache is
// tested against the full variety of busy terms and chaining.
func deltaParams() Params {
	p := handParams()
	p.Iterations = 5
	p.BaseDist = []int{24, 24} // widths beyond 10 elems stream (1000 B memory)
	stage := p.Sections[0].Stages[0]
	prefetch := stage
	prefetch.Prefetch = true
	prefetch.ReadOnly = true
	prefetch.WritePerByte = nil
	prefetch.OverlapPerElem = []float64{0.05, 0.05}
	p.Sections = []SectionParams{
		{Name: "plain", Tiles: 1, Comm: program.CommNone, Stages: []StageParams{stage}},
		{Name: "nn", Tiles: 1, Comm: program.CommNearestNeighbor, MsgBytes: 256, Stages: []StageParams{prefetch}},
		{Name: "pipe", Tiles: 4, Comm: program.CommPipeline, MsgBytes: 128, Stages: []StageParams{stage}},
		{Name: "red", Tiles: 1, Comm: program.CommReduction, ReduceBytes: 64, Stages: []StageParams{stage}},
	}
	return p
}

// TestDeltaMatchesFullBitIdentical sweeps every split of the workload and
// requires the delta path to reproduce Predict exactly — not within a
// tolerance: the two paths must agree bit for bit.
func TestDeltaMatchesFullBitIdentical(t *testing.T) {
	variants := map[string]Params{
		"mixed":  deltaParams(),
		"shared": func() Params { p := deltaParams(); p.SharedDisk = true; return p }(),
		"incore": func() Params {
			p := deltaParams()
			p.MemoryBytes = []int64{1 << 20, 1 << 20}
			return p
		}(),
	}
	for name, p := range variants {
		t.Run(name, func(t *testing.T) {
			m := MustModel(p)
			ref := MustModel(p) // evaluated only via Predict
			de := m.Delta()
			total := p.BaseDist[0] + p.BaseDist[1]
			for w := 0; w <= total; w++ {
				d := []int{w, total - w}
				want := ref.Predict(d).Total
				got, _ := de.Evaluate(d)
				if got != want {
					t.Fatalf("d=%v: delta %v != full %v", d, got, want)
				}
				// Replays from a warm cache must stay bit-identical too.
				if again, _ := de.Evaluate(d); again != want {
					t.Fatalf("d=%v: warm replay %v != full %v", d, again, want)
				}
			}
		})
	}
}

func TestDeltaUsesCachePath(t *testing.T) {
	m := MustModel(deltaParams())
	de := m.Delta()
	if _, usedDelta := de.Evaluate([]int{30, 18}); !usedDelta {
		t.Fatal("delta path not taken on a plain candidate")
	}
	st := de.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cold eval stats = %+v, want 2 misses", st)
	}
	de.Evaluate([]int{30, 18})
	if st = de.Stats(); st.Hits != 2 {
		t.Fatalf("warm eval stats = %+v, want 2 hits", st)
	}
	// A neighbour candidate moving elements between the nodes misses only
	// the two new widths.
	de.Evaluate([]int{29, 19})
	if st = de.Stats(); st.Misses != 4 {
		t.Fatalf("neighbour stats = %+v, want 4 misses total", st)
	}
	if st.FullEvals != 0 {
		t.Fatalf("unexpected full evaluations: %+v", st)
	}
}

func TestDeltaFallbackIterWeights(t *testing.T) {
	p := deltaParams()
	p.IterWeights = []float64{1, 0.5, 2, 1, 1}
	m := MustModel(p)
	de := m.Delta()
	d := []int{20, 28}
	got, usedDelta := de.Evaluate(d)
	if usedDelta {
		t.Fatal("weighted iterations must take the full path")
	}
	if want := MustModel(p).Predict(d).Total; got != want {
		t.Fatalf("fallback value %v != full %v", got, want)
	}
	if de.Stats().FullEvals != 1 {
		t.Fatalf("stats = %+v", de.Stats())
	}
}

func TestDeltaFallbackWidthOutOfRange(t *testing.T) {
	m := MustModel(deltaParams())
	de := m.Delta()
	d := []int{100, 0} // exceeds maxW = 48
	got, usedDelta := de.Evaluate(d)
	if usedDelta {
		t.Fatal("out-of-range width must take the full path")
	}
	if want := m.Predict(d).Total; got != want {
		t.Fatalf("fallback value %v != full %v", got, want)
	}
}

func TestDeltaFallbackSharedDiskContention(t *testing.T) {
	p := deltaParams()
	p.SharedDisk = true
	m := MustModel(p)
	ref := MustModel(p)
	de := m.Delta()

	// Both nodes stream: kShared = 2, which the cache cannot represent.
	d := []int{24, 24}
	got, usedDelta := de.Evaluate(d)
	if usedDelta {
		t.Fatal("multi-streamer shared-disk candidate must take the full path")
	}
	if want := ref.Predict(d).Total; got != want {
		t.Fatalf("fallback value %v != full %v", got, want)
	}

	// One streamer: kShared stays 1, cache is valid.
	d = []int{40, 8}
	got, usedDelta = de.Evaluate(d)
	if !usedDelta {
		t.Fatal("single-streamer candidate should use the cache")
	}
	if want := ref.Predict(d).Total; got != want {
		t.Fatalf("delta value %v != full %v", got, want)
	}
}

func TestDeltaDisabledByFootprintGate(t *testing.T) {
	p := handParams()
	p.MemoryBytes = []int64{1 << 40, 1 << 40} // keep the huge workload in core
	p.BaseDist = []int{3_000_000, 3_000_000}  // 1 section × 2 nodes × 6M widths × 8 B ≈ 96 MB
	m := MustModel(p)
	de := m.Delta()
	d := []int{3_000_000, 3_000_000}
	got, usedDelta := de.Evaluate(d)
	if usedDelta {
		t.Fatal("oversized cache should disable the delta path")
	}
	if want := m.Predict(d).Total; got != want {
		t.Fatalf("disabled-path value %v != full %v", got, want)
	}
}

// TestDeltaInterleavedWithPredict checks the cache and the full path can
// alternate on one model without contaminating each other: Predict
// overwrites the shared busy/clock scratch and the residency layouts, and
// the delta path must still replay correct values afterwards.
func TestDeltaInterleavedWithPredict(t *testing.T) {
	p := deltaParams()
	p.SharedDisk = true
	m := MustModel(p)
	ref := MustModel(p)
	de := m.Delta()

	dA := []int{40, 8}
	dB := []int{24, 24} // full-path fallback (two streamers)
	wantA := ref.Predict(dA).Total
	wantB := ref.Predict(dB).Total
	for i := 0; i < 3; i++ {
		if got, _ := de.Evaluate(dA); got != wantA {
			t.Fatalf("round %d: delta A %v != %v", i, got, wantA)
		}
		if got := m.Predict(dB).Total; got != wantB {
			t.Fatalf("round %d: full B %v != %v", i, got, wantB)
		}
		if got, _ := de.Evaluate(dB); got != wantB {
			t.Fatalf("round %d: delta-fallback B %v != %v", i, got, wantB)
		}
		if got := m.Predict(dA).Total; got != wantA {
			t.Fatalf("round %d: full A %v != %v", i, got, wantA)
		}
	}
}

// TestDeltaClonesShareTerms pins the clone contract: clones share the
// master's busy-term table, so a width one clone filled is a hit for a
// sibling, while each evaluator's stats start at zero and count only its
// own lookups.
func TestDeltaClonesShareTerms(t *testing.T) {
	p := deltaParams()
	m := MustModel(p)
	a, b := m.Clone().Delta(), m.Clone().Delta()
	if a == b {
		t.Fatal("clones share one delta evaluator")
	}
	d := []int{30, 18}
	want := math.Float64bits(MustModel(p).PredictTotal(d))
	if got, used := a.Evaluate(d); !used || math.Float64bits(got) != want {
		t.Fatalf("first clone: %v (delta=%v), want bits %#x", got, used, want)
	}
	if st := a.Stats(); st.Misses != 2 {
		t.Fatalf("first clone stats = %+v, want 2 misses", st)
	}
	if st := b.Stats(); st != (DeltaStats{}) {
		t.Fatalf("sibling stats not per-evaluator: %+v", st)
	}
	if got, used := b.Evaluate(d); !used || math.Float64bits(got) != want {
		t.Fatalf("sibling: %v (delta=%v), want bits %#x", got, used, want)
	}
	if st := b.Stats(); st.Misses != 0 || st.Hits != 2 {
		t.Fatalf("sibling stats = %+v, want 2 hits and no misses", st)
	}
	// The master's own evaluator reads the same table.
	if m.Delta().Evaluate(d); m.Delta().Stats().Misses != 0 {
		t.Fatalf("master stats = %+v, want no misses", m.Delta().Stats())
	}
}

// referenceReduceTree is the pre-refactor two-pass implementation of the
// binomial reduce + broadcast, kept here as the oracle for the compiled
// edge-list replay: for any rank count and any starting clocks the fused
// kernel must reproduce it bit for bit.
func referenceReduceTree(clock []float64, os, or, wire float64, allreduce bool) {
	n := len(clock)
	arrival := make([]float64, n)
	for mask := 1; mask < n; mask <<= 1 {
		for p := 0; p < n; p++ {
			if p&mask != 0 && p&(mask-1) == 0 {
				clock[p] += os
				arrival[p] = clock[p] + wire
			}
		}
		for p := 0; p < n; p++ {
			if p&(2*mask-1) == 0 && p+mask < n {
				if a := arrival[p+mask]; a > clock[p] {
					clock[p] = a
				}
				clock[p] += or
			}
		}
	}
	if !allreduce {
		return
	}
	highest := 1
	for highest<<1 < n {
		highest <<= 1
	}
	for p := 0; p < n; p++ {
		start := highest
		if p != 0 {
			start = lowbit(p) >> 1
		}
		for c := start; c >= 1; c >>= 1 {
			child := p + c
			if child >= n {
				continue
			}
			clock[p] += os
			a := clock[p] + wire
			if a > clock[child] {
				clock[child] = a
			}
			clock[child] += or
		}
	}
}

func TestCompiledTreeEdgesMatchReference(t *testing.T) {
	const os, or, wire = 0.0013, 0.0027, 0.0054
	replay := func(clock []float64, edges []treeEdge) {
		for _, e := range edges {
			clock[e.from] += os
			a := clock[e.from] + wire
			if a > clock[e.to] {
				clock[e.to] = a
			}
			clock[e.to] += or
		}
	}
	for n := 1; n <= 17; n++ {
		reduce, bcast := compileTreeEdges(n)
		if n > 1 && (len(reduce) != n-1 || len(bcast) != n-1) {
			t.Fatalf("n=%d: %d reduce / %d bcast edges, want %d each", n, len(reduce), len(bcast), n-1)
		}
		for _, allreduce := range []bool{false, true} {
			got := make([]float64, n)
			want := make([]float64, n)
			for p := 0; p < n; p++ {
				// Deterministic, skewed starting clocks.
				got[p] = float64((p*7)%5) + 0.3*float64(p)
				want[p] = got[p]
			}
			replay(got, reduce)
			if allreduce {
				replay(got, bcast)
			}
			referenceReduceTree(want, os, or, wire, allreduce)
			for p := 0; p < n; p++ {
				if got[p] != want[p] {
					t.Fatalf("n=%d allreduce=%v rank %d: %v != %v", n, allreduce, p, got[p], want[p])
				}
			}
		}
	}
}
