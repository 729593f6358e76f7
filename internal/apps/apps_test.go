package apps_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/memsim"
	"mheta/internal/mpi"
	"mheta/internal/program"
)

func uniformSpec(n int, mem int64) cluster.Spec {
	base := cluster.DC(n)
	for i := range base.Nodes {
		base.Nodes[i] = cluster.NodeSpec{CPUPower: 1, MemoryBytes: mem, DiskScale: 1}
	}
	base.Name = "uniform"
	return base
}

// f64At reads element i of an extent, which the apps lay out in the
// host's native representation.
func f64At(b []byte, i int) float64 {
	return math.Float64frombits(binary.NativeEndian.Uint64(b[8*i:]))
}

// runApp executes app on a fresh noise-free world and returns it for
// post-run inspection.
func runApp(t *testing.T, app *exec.App, spec cluster.Spec, d dist.Distribution) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(spec, 1, 0)
	if _, err := exec.Run(w, app, d, exec.Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return w
}

// ---- Jacobi ----------------------------------------------------------

// ooc3 is a per-node memory size that streams every 32-row block of
// the reference tests below in at least three chunks, the last one short
// (fourteen-row chunks for Jacobi, twelve for RNA, seven for Multigrid), so
// the kernels' rolling rows cross several chunk boundaries.
const ooc3 = 1800

// checkChunking asserts that mem splits a count-row block of rowBytes
// rows, streamed over tiles, into at least three chunks with a short
// last one.
func checkChunking(t *testing.T, mem, rowBytes int64, count, tiles int) {
	t.Helper()
	l := memsim.PlanVar(memsim.Budget{Capacity: mem}, int64(count)*rowBytes, rowBytes)
	st := memsim.StreamPlan(count, rowBytes, l.ICLABytes, tiles)
	if st.ChunksPerTile < 3 || count%st.ChunkElems == 0 {
		t.Fatalf("mem=%d streams %d rows as %d chunks of %d; want >= 3 with a short last chunk",
			mem, count, st.ChunksPerTile, st.ChunkElems)
	}
}

// oddBlocks and oddMem drive the kernels' row-count tails: a Process
// call gets a whole block in core (28, 29, 30 or 31 rows) and at oddMem
// a chunk (Jacobi's 16-column rows stream as 13, 13 and then 2, 3, 4 or
// 5 rows; RNA's 64-column rows in 4 tiles as 12, 12 and then 4, 5, 6 or
// 7), so every residue mod 4 reaches the paired and single-row paths.
var oddBlocks = dist.Distribution{28, 29, 30, 31}

const oddMem = 1700

// rowCounts wraps a State and records which residues mod 4 its section
// 0 Process calls were given.
type rowCounts struct {
	exec.State
	seen *[4]bool
}

func (r rowCounts) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	if sec == 0 {
		r.seen[nRows%4] = true
	}
	return r.State.Process(nc, sec, stg, tile, gRow, nRows, buf)
}

// runOddLengths runs newApp over oddBlocks in core and at oddMem, each
// with and without prefetching its first stage, and hands check the
// world and every rank's state. Each run must give section 0 row counts
// of every residue mod 4.
func runOddLengths(t *testing.T, newApp func() *exec.App, check func(run string, w *mpi.World, states []exec.State)) {
	t.Helper()
	for _, mem := range []int64{8 << 20, oddMem} {
		for _, prefetch := range []bool{false, true} {
			run := fmt.Sprintf("mem=%d prefetch=%v", mem, prefetch)
			app := newApp()
			app.Prog.Sections[0].Stages[0].Prefetch = prefetch
			states := make([]exec.State, len(oddBlocks))
			var seen [4]bool
			newState := app.NewState
			app.NewState = func(nc *exec.NodeCtx) exec.State {
				s := newState(nc)
				states[nc.R.Rank()] = s
				return rowCounts{State: s, seen: &seen}
			}
			w := runApp(t, app, uniformSpec(len(oddBlocks), mem), oddBlocks)
			if seen != [4]bool{true, true, true, true} {
				t.Fatalf("%s: row counts mod 4 seen %v, want all four", run, seen)
			}
			check(run, w, states)
		}
	}
}

func TestJacobiMatchesReference(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 128, 16, 4
	d := dist.Block(cfg.Rows, 4)
	checkChunking(t, ooc3, int64(cfg.Cols)*8, d[0], 1)
	for _, prefetch := range []bool{false, true} {
		cfg.Prefetch = prefetch
		for _, mem := range []int64{8 << 20, 4 << 10, ooc3} {
			w := runApp(t, apps.NewJacobi(cfg), uniformSpec(4, mem), d)
			ref, _ := apps.JacobiReference(cfg, d, cfg.Iterations)
			for p := 0; p < 4; p++ {
				blob := w.Rank(p).Disk().Extent("B")
				start := d.Start(p)
				for i := 0; i < d[p]; i++ {
					for j := 0; j < cfg.Cols; j++ {
						got := f64At(blob, i*cfg.Cols+j)
						want := ref[start+i][j]
						if got != want {
							t.Fatalf("prefetch=%v mem=%d rank %d row %d col %d: got %v want %v",
								prefetch, mem, p, start+i, j, got, want)
						}
					}
				}
			}
		}
	}
}

func TestJacobiReferenceResidualDecreases(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols = 128, 16
	blocks := dist.Block(cfg.Rows, 4)
	_, r1 := apps.JacobiReference(cfg, blocks, 1)
	_, r8 := apps.JacobiReference(cfg, blocks, 8)
	for p := range blocks {
		if !(r8[p] < r1[p]) {
			t.Fatalf("block %d: relaxation residual did not decrease: %v -> %v", p, r1[p], r8[p])
		}
	}
}

// TestJacobiGlobalResidualMatchesReference pins the residual reduction:
// every rank's GlobalResidual is, bit for bit, the sum the binomial
// reduction forms from the reference's per-block residuals — for four
// ranks rooted at 0, (r0+r1)+(r2+r3).
func TestJacobiGlobalResidualMatchesReference(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 128, 16, 3
	d := dist.Block(cfg.Rows, 4)
	_, r := apps.JacobiReference(cfg, d, cfg.Iterations)
	want := (r[0] + r[1]) + (r[2] + r[3])
	if !(want > 0) {
		t.Fatalf("reference residual %v, want positive", want)
	}

	app := apps.NewJacobi(cfg)
	states := make([]exec.State, len(d))
	newState := app.NewState
	app.NewState = func(nc *exec.NodeCtx) exec.State {
		s := newState(nc)
		states[nc.R.Rank()] = s
		return s
	}
	runApp(t, app, uniformSpec(4, 8<<20), d)
	for p, s := range states {
		if got := apps.JacobiGlobalResidualForTest(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("rank %d: GlobalResidual %v, want %v", p, got, want)
		}
	}
}

func TestJacobiZeroBlockMatchesReference(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 128, 16, 3
	d := dist.Distribution{0, 64, 0, 64}
	w := runApp(t, apps.NewJacobi(cfg), uniformSpec(4, 8<<20), d)
	ref, _ := apps.JacobiReference(cfg, d, cfg.Iterations)
	for _, p := range []int{1, 3} {
		blob := w.Rank(p).Disk().Extent("B")
		start := d.Start(p)
		for i := 0; i < d[p]; i++ {
			if got, want := f64At(blob, i*cfg.Cols), ref[start+i][0]; got != want {
				t.Fatalf("rank %d row %d: %v != %v", p, start+i, got, want)
			}
		}
	}
}

// TestJacobiOddLengthsMatchReference pins the odd-row tail of the
// paired relax kernel: grids and every rank's GlobalResidual match the
// reference bit for bit when blocks and chunks take every length mod 4.
func TestJacobiOddLengthsMatchReference(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = oddBlocks.Total(), 16, 3
	ref, r := apps.JacobiReference(cfg, oddBlocks, cfg.Iterations)
	want := (r[0] + r[1]) + (r[2] + r[3])
	runOddLengths(t, func() *exec.App { return apps.NewJacobi(cfg) }, func(run string, w *mpi.World, states []exec.State) {
		for p, s := range states {
			blob := w.Rank(p).Disk().Extent("B")
			start := oddBlocks.Start(p)
			for i := 0; i < oddBlocks[p]; i++ {
				for j := 0; j < cfg.Cols; j++ {
					if got, want := f64At(blob, i*cfg.Cols+j), ref[start+i][j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s rank %d row %d col %d: got %v want %v", run, p, start+i, j, got, want)
					}
				}
			}
			if got := apps.JacobiGlobalResidualForTest(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s rank %d: GlobalResidual %v, want %v", run, p, got, want)
			}
		}
	})
}

// ---- RNA -------------------------------------------------------------

func TestRNAMatchesReferenceExactly(t *testing.T) {
	cfg := apps.DefaultRNAConfig()
	cfg.Rows, cfg.Cols, cfg.Tiles, cfg.Iterations = 128, 64, 4, 3
	d := dist.Block(cfg.Rows, 4)
	checkChunking(t, ooc3, int64(cfg.Cols)*8, d[0], cfg.Tiles)
	ref, _ := apps.RNAReference(cfg, cfg.Iterations)
	strip := cfg.Cols / cfg.Tiles
	for _, prefetch := range []bool{false, true} {
		cfg.Prefetch = prefetch
		for _, mem := range []int64{8 << 20, 4 << 10, ooc3} {
			w := runApp(t, apps.NewRNA(cfg), uniformSpec(4, mem), d)
			for p := 0; p < 4; p++ {
				blob := w.Rank(p).Disk().Extent("T")
				start := d.Start(p)
				for k := 0; k < cfg.Tiles; k++ {
					for i := 0; i < d[p]; i++ {
						for j := 0; j < strip; j++ {
							got := f64At(blob, (k*d[p]+i)*strip+j)
							want := ref[start+i][k*strip+j]
							if got != want {
								t.Fatalf("prefetch=%v mem=%d rank %d row %d col %d: %v != %v",
									prefetch, mem, p, start+i, k*strip+j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestRNAUnevenDistributionStillExact(t *testing.T) {
	cfg := apps.DefaultRNAConfig()
	cfg.Rows, cfg.Cols, cfg.Tiles, cfg.Iterations = 120, 32, 4, 2
	d := dist.Distribution{10, 50, 40, 20}
	w := runApp(t, apps.NewRNA(cfg), uniformSpec(4, 8<<20), d)
	ref, _ := apps.RNAReference(cfg, cfg.Iterations)
	strip := cfg.Cols / cfg.Tiles
	for p := 0; p < 4; p++ {
		blob := w.Rank(p).Disk().Extent("T")
		start := d.Start(p)
		for k := 0; k < cfg.Tiles; k++ {
			for i := 0; i < d[p]; i++ {
				got := f64At(blob, (k*d[p]+i)*strip)
				want := ref[start+i][k*strip]
				if got != want {
					t.Fatalf("rank %d row %d tile %d: %v != %v", p, start+i, k, got, want)
				}
			}
		}
	}
}

// TestRNAOddLengthsMatchReference pins the single-row path that takes
// the rows left over from the four-row wavefront kernel and every row of
// a strip under four columns: tables and every rank's GlobalScore match
// the reference bit for bit when blocks and chunks take every length
// mod 4.
func TestRNAOddLengthsMatchReference(t *testing.T) {
	// Strips of 16 columns mix the two paths; strips of 3 go row by row.
	for _, cols := range []int{64, 12} {
		cfg := apps.DefaultRNAConfig()
		cfg.Rows, cfg.Cols, cfg.Tiles, cfg.Iterations = oddBlocks.Total(), cols, 4, 2
		ref, _ := apps.RNAReference(cfg, cfg.Iterations)
		// Each rank sums its rows' last-column values in row order; the
		// reduction over four ranks rooted at 0 adds (s0+s1)+(s2+s3).
		var sums [4]float64
		for p := range sums {
			for i := oddBlocks.Start(p); i < oddBlocks.Start(p)+oddBlocks[p]; i++ {
				sums[p] += ref[i][cfg.Cols-1]
			}
		}
		want := (sums[0] + sums[1]) + (sums[2] + sums[3])
		strip := cfg.Cols / cfg.Tiles
		runOddLengths(t, func() *exec.App { return apps.NewRNA(cfg) }, func(run string, w *mpi.World, states []exec.State) {
			for p, s := range states {
				blob := w.Rank(p).Disk().Extent("T")
				start := oddBlocks.Start(p)
				for k := 0; k < cfg.Tiles; k++ {
					for i := 0; i < oddBlocks[p]; i++ {
						for j := 0; j < strip; j++ {
							got, want := f64At(blob, (k*oddBlocks[p]+i)*strip+j), ref[start+i][k*strip+j]
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("cols=%d %s rank %d row %d col %d: %v != %v", cols, run, p, start+i, k*strip+j, got, want)
							}
						}
					}
				}
				if got := apps.RNAGlobalScoreForTest(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("cols=%d %s rank %d: GlobalScore %v, want %v", cols, run, p, got, want)
				}
			}
		})
	}
}

func TestRNAProgramRejectsIndivisibleTiles(t *testing.T) {
	cfg := apps.DefaultRNAConfig()
	cfg.Cols, cfg.Tiles = 100, 8
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Cols % Tiles != 0")
		}
	}()
	apps.RNAProgram(cfg)
}

// ---- CG --------------------------------------------------------------

func TestCGResidualConvergesAndMatchesReference(t *testing.T) {
	cfg := apps.DefaultCGConfig()
	cfg.N, cfg.Iterations = 512, 6
	rhos := apps.CGReference(cfg, cfg.Iterations)
	if len(rhos) != cfg.Iterations {
		t.Fatalf("%d rhos", len(rhos))
	}
	// SPD diagonally dominant system: CG must reduce the residual fast.
	if !(rhos[len(rhos)-1] < rhos[0]*1e-3) {
		t.Fatalf("CG not converging: rho %v -> %v", rhos[0], rhos[len(rhos)-1])
	}
}

func TestCGParallelMatchesReference(t *testing.T) {
	cfg := apps.DefaultCGConfig()
	cfg.N, cfg.Iterations = 512, 4
	refRhos := apps.CGReference(cfg, cfg.Iterations)

	// Run in parallel and extract the final rho via a probe state.
	app := apps.NewCG(cfg)
	var lastState *stateProbe
	orig := app.NewState
	app.NewState = func(nc *exec.NodeCtx) exec.State {
		s := orig(nc)
		p := &stateProbe{State: s}
		if nc.R.Rank() == 0 {
			lastState = p
		}
		return p
	}
	d := dist.Block(cfg.N, 4)
	runApp(t, app, uniformSpec(4, 8<<20), d)
	got := lastState.lastReduce
	want := refRhos[len(refRhos)-1]
	if relErr(got, want) > 1e-9 {
		t.Fatalf("parallel rho %v vs reference %v", got, want)
	}
}

// stateProbe wraps a State and captures the last scalar reduction result
// (CG's rho, Lanczos' beta², ...).
type stateProbe struct {
	exec.State
	lastReduce float64
}

func (s *stateProbe) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	if len(vals) == 1 {
		s.lastReduce = vals[0]
	}
	s.State.OnReduce(nc, sec, vals)
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestCGNNZVariesAcrossRows(t *testing.T) {
	cfg := apps.DefaultCGConfig()
	cfg.N = 2048
	counts := map[int]bool{}
	minNNZ, maxNNZ := 1<<30, 0
	for i := 0; i < cfg.N; i += 13 {
		n := apps.CGNNZForTest(cfg, i)
		counts[n] = true
		if n < minNNZ {
			minNNZ = n
		}
		if n > maxNNZ {
			maxNNZ = n
		}
	}
	if len(counts) < 10 {
		t.Fatalf("only %d distinct nnz counts — no density variation", len(counts))
	}
	if maxNNZ < 2*minNNZ {
		t.Fatalf("nnz range [%d, %d] too flat for the §5.4 sparse-imbalance effect", minNNZ, maxNNZ)
	}
}

func TestCGMatrixSymmetric(t *testing.T) {
	cfg := apps.DefaultCGConfig()
	cfg.N = 256
	entries := make([]map[int]float64, cfg.N)
	for i := 0; i < cfg.N; i++ {
		entries[i] = apps.CGRowEntriesForTest(cfg, i)
	}
	for i := 0; i < cfg.N; i++ {
		for j, v := range entries[i] {
			if i == j {
				continue
			}
			if back, ok := entries[j][i]; !ok || back != v {
				t.Fatalf("A[%d][%d]=%v but A[%d][%d]=%v", i, j, v, j, i, entries[j][i])
			}
		}
	}
}

func TestCGMatrixDiagonallyDominant(t *testing.T) {
	cfg := apps.DefaultCGConfig()
	cfg.N = 256
	for i := 0; i < cfg.N; i++ {
		es := apps.CGRowEntriesForTest(cfg, i)
		off := 0.0
		for j, v := range es {
			if j != i {
				off += math.Abs(v)
			}
		}
		if es[i] <= off {
			t.Fatalf("row %d not diagonally dominant: diag %v vs off %v", i, es[i], off)
		}
	}
}

// ---- Lanczos ---------------------------------------------------------

func TestLanczosMatchesReference(t *testing.T) {
	cfg := apps.DefaultLanczosConfig()
	cfg.N, cfg.Iterations = 256, 4
	refA, refB := apps.LanczosReference(cfg, cfg.Iterations)

	app := apps.NewLanczos(cfg)
	var probe *lanczosProbe
	orig := app.NewState
	app.NewState = func(nc *exec.NodeCtx) exec.State {
		s := orig(nc)
		if nc.R.Rank() == 0 {
			probe = &lanczosProbe{inner: s}
			return probe
		}
		return s
	}
	runApp(t, app, uniformSpec(4, 8<<20), dist.Block(cfg.N, 4))

	gotA, gotB := probe.alphas(), probe.betas()
	if len(gotA) != len(refA) {
		t.Fatalf("%d alphas vs %d", len(gotA), len(refA))
	}
	for i := range refA {
		if relErr(gotA[i], refA[i]) > 1e-9 {
			t.Fatalf("alpha[%d] %v vs %v", i, gotA[i], refA[i])
		}
		if relErr(gotB[i], refB[i]) > 1e-9 {
			t.Fatalf("beta[%d] %v vs %v", i, gotB[i], refB[i])
		}
	}
}

type lanczosProbe struct {
	inner exec.State
}

func (p *lanczosProbe) Init(nc *exec.NodeCtx) { p.inner.Init(nc) }
func (p *lanczosProbe) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	return p.inner.Process(nc, sec, stg, tile, gRow, nRows, buf)
}
func (p *lanczosProbe) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	return p.inner.BoundaryMsg(nc, sec, tile, dir)
}
func (p *lanczosProbe) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {
	p.inner.OnBoundary(nc, sec, tile, dir, data)
}
func (p *lanczosProbe) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	return p.inner.ReduceVal(nc, sec)
}
func (p *lanczosProbe) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	p.inner.OnReduce(nc, sec, vals)
}
func (p *lanczosProbe) alphas() []float64 { return apps.LanczosAlphasForTest(p.inner) }
func (p *lanczosProbe) betas() []float64  { return apps.LanczosBetasForTest(p.inner) }

func TestLanczosBetasPositive(t *testing.T) {
	cfg := apps.DefaultLanczosConfig()
	cfg.N = 128
	_, betas := apps.LanczosReference(cfg, 4)
	for i, b := range betas {
		if b <= 0 {
			t.Fatalf("beta[%d] = %v", i, b)
		}
	}
}

// ---- cross-cutting ---------------------------------------------------

func TestAllReturnsFourApps(t *testing.T) {
	all := apps.All()
	if len(all) != 4 {
		t.Fatalf("All() returned %d apps", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		if err := a.Prog.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Prog.Name, err)
		}
		names[a.Prog.Name] = true
	}
	for _, want := range []string{"jacobi", "cg", "lanczos", "rna"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestDefaultConfigsExerciseMemoryHierarchy(t *testing.T) {
	// Every default app must be in core on an unconstrained 8 MiB node
	// and out of core on a 1 MiB node under Blk — the structure the
	// Table 1 experiments rely on.
	for _, app := range append(apps.All(), apps.NewMultigrid(apps.DefaultMGConfig())) {
		total := app.Prog.GlobalElems()
		var perElem int64
		for _, v := range app.Prog.DistributedVars() {
			perElem += v.ElemBytes
		}
		blkBytes := int64(total/8) * perElem
		if blkBytes > 8<<20 {
			t.Errorf("%s: Blk block %d B exceeds the 8 MiB default memory", app.Prog.Name, blkBytes)
		}
		if blkBytes <= 1<<20 {
			t.Errorf("%s: Blk block %d B fits the 1 MiB small memory — IO configs would never stream", app.Prog.Name, blkBytes)
		}
	}
}

// rank1 is the context of rank 1 owning rows [start, start+count) of
// app's distributed variables on a fresh in-core world.
func rank1(app *exec.App, start, count int) *exec.NodeCtx {
	w := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	return &exec.NodeCtx{R: w.Rank(1), Prog: app.Prog, Start: start, Count: count}
}

// kernel initialises app's state for rank 1 owning rows
// [start, start+count) of variable v, and returns one Process call per
// section in secs over the whole block as a single chunk (tile 0's strip
// for tiled sections), each followed by the section's ReduceVal when
// the section ends in a reduction.
func kernel(app *exec.App, v string, secs []int, start, count, tiles int) func() {
	nc := rank1(app, start, count)
	st := app.NewState(nc)
	st.Init(nc)
	blob := nc.R.Disk().Extent(v)
	buf := blob[:len(blob)/tiles]
	return func() {
		for _, sec := range secs {
			st.Process(nc, sec, 0, 0, start, count, buf)
			if app.Prog.Sections[sec].Comm == program.CommReduction {
				st.ReduceVal(nc, sec)
			}
		}
	}
}

func TestKernelsDoNotAllocate(t *testing.T) {
	jc := apps.DefaultJacobiConfig()
	jc.Rows, jc.Cols = 128, 16
	rc := apps.DefaultRNAConfig()
	rc.Rows, rc.Cols, rc.Tiles = 128, 64, 4
	mc := apps.DefaultMGConfig()
	mc.Rows, mc.Cols = 128, 16
	cc := apps.DefaultCGConfig()
	cc.N, cc.MaxBand, cc.MinBand = 128, 6, 2
	lc := apps.DefaultLanczosConfig()
	lc.N = 128
	for _, k := range []struct {
		name string
		call func()
	}{
		{"jacobi", kernel(apps.NewJacobi(jc), "B", []int{0, 1}, 32, 32, 1)},
		{"rna", kernel(apps.NewRNA(rc), "T", []int{0, 1}, 32, 32, rc.Tiles)},
		{"multigrid", kernel(apps.NewMultigrid(mc), "U", []int{0, 1, 2, 3, 4}, 32, 32, 1)},
		{"cg", kernel(apps.NewCG(cc), "A", []int{0, 1, 2}, 32, 32, 1)},
		{"lanczos", kernel(apps.NewLanczos(lc), "A", []int{0, 1, 2}, 32, 32, 1)},
	} {
		k.call() // warm
		if n := testing.AllocsPerRun(20, k.call); n != 0 {
			t.Errorf("%s: Process and ReduceVal allocate %v times per call, want 0", k.name, n)
		}
	}
}

// BenchmarkKernels times the apps' hot loops at their default sizes on
// rank 1 of an 8-way block: one warm Process call per op for the Jacobi
// relax and the RNA wavefront (tile 0's strip), and one Init per op for
// CG and Lanczos, whose set-up lays out the matrix. ns/cell divides by
// the cells an op touches: grid or table cells for the kernels, padded
// matrix slots for the Inits.
func BenchmarkKernels(b *testing.B) {
	jc, rc := apps.DefaultJacobiConfig(), apps.DefaultRNAConfig()
	cc, lc := apps.DefaultCGConfig(), apps.DefaultLanczosConfig()
	initOp := func(app *exec.App, start, count int) func() {
		nc := rank1(app, start, count)
		return func() { app.NewState(nc).Init(nc) }
	}
	for _, k := range []struct {
		name  string
		cells int
		op    func()
	}{
		{"jacobi-relax", jc.Rows / 8 * jc.Cols, kernel(apps.NewJacobi(jc), "B", []int{0}, jc.Rows/8, jc.Rows/8, 1)},
		{"rna-wavefront", rc.Rows / 8 * (rc.Cols / rc.Tiles), kernel(apps.NewRNA(rc), "T", []int{0}, rc.Rows/8, rc.Rows/8, rc.Tiles)},
		{"cg-init", cc.N / 8 * (2*cc.MaxBand + 1), initOp(apps.NewCG(cc), cc.N/8, cc.N/8)},
		{"lanczos-init", lc.N / 8 * lc.N, initOp(apps.NewLanczos(lc), lc.N/8, lc.N/8)},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			k.op()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.cells), "ns/cell")
		})
	}
}

// TestReadOnlyExtentsUnchanged runs CG and Lanczos, whose matrix A is
// ReadOnly, in core, out of core, and out of core with the matvec stage
// prefetching. Disk reads hand out views of the extent, so a kernel that
// wrote to its chunk would change A: afterwards every rank's A must be
// byte-identical to a freshly laid out one.
func TestReadOnlyExtentsUnchanged(t *testing.T) {
	cc := apps.DefaultCGConfig()
	cc.N, cc.Iterations = 256, 3
	lc := apps.DefaultLanczosConfig()
	lc.N, lc.Iterations = 128, 3
	for _, a := range []struct {
		name string
		app  func() *exec.App
		rows int
	}{
		{"cg", func() *exec.App { return apps.NewCG(cc) }, cc.N},
		{"lanczos", func() *exec.App { return apps.NewLanczos(lc) }, lc.N},
	} {
		for _, m := range []struct {
			name     string
			mem      int64
			prefetch bool
		}{
			{"in-core", 8 << 20, false},
			{"out-of-core", 8 << 10, false},
			{"prefetch", 8 << 10, true},
		} {
			app := a.app()
			app.Prog.Sections[0].Stages[0].Prefetch = m.prefetch
			spec := uniformSpec(4, m.mem)
			d := dist.Block(a.rows, 4)
			w := runApp(t, app, spec, d)
			fresh := mpi.NewWorld(spec, 1, 0)
			start := 0
			for p, count := range d {
				disk := w.Rank(p).Disk()
				if outOfCore := disk.Reads > 1; outOfCore != (m.mem < 1<<20) || (disk.Prefetches > 0) != m.prefetch {
					t.Fatalf("%s/%s rank %d: %d reads, %d prefetches: not the intended path", a.name, m.name, p, disk.Reads, disk.Prefetches)
				}
				nc := &exec.NodeCtx{R: fresh.Rank(p), Prog: app.Prog, Start: start, Count: count}
				app.NewState(nc).Init(nc)
				start += count
				if !bytes.Equal(disk.Extent("A"), fresh.Rank(p).Disk().Extent("A")) {
					t.Errorf("%s/%s rank %d: the run changed the ReadOnly matrix", a.name, m.name, p)
				}
			}
		}
	}
}

// TestF64sRejectsRaggedAndMisalignedBuffers pins f64s's two panics and
// checks that a valid view aliases its buffer.
func TestF64sRejectsRaggedAndMisalignedBuffers(t *testing.T) {
	raw := make([]byte, 32)
	v := apps.F64sForTest(raw)
	v[1] = 1.5
	if len(v) != 4 || f64At(raw, 1) != 1.5 {
		t.Fatalf("f64s view has %d elements and reads back %v, want 4 and 1.5", len(v), f64At(raw, 1))
	}
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"ragged", raw[:12]},
		{"misaligned", raw[1:17]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("f64s accepted a %s buffer", c.name)
				}
			}()
			apps.F64sForTest(c.b)
		}()
	}
}
