package apps

import (
	"mheta/internal/exec"
	"mheta/internal/program"
)

// RNA: the pipelining benchmark "based on RNA pseudoknots" — a wavefront
// dynamic program over an N×M table distributed by rows. The column space
// is cut into tiles; node p can only process tile k after receiving the
// last row of its upstream neighbour's strip for tile k, so execution
// pipelines down the node chain (§4.2.2's pipelined pattern, modelled by
// Equation 4). The table is read and written each pass, out of core when
// the node's block exceeds memory.
//
// The recurrence T[i][j] = 0.5·max(T[i−1][j], T[i][j−1]) + s(i,j) has the
// true wavefront dependency structure and — unlike block relaxation — a
// distribution-independent result, so tests verify the table against a
// sequential sweep bit-for-bit.

// RNAConfig sizes the benchmark.
type RNAConfig struct {
	Rows, Cols int
	Tiles      int
	Iterations int
	// Prefetch unrolls each tile's ICLA loop (Figure 6) — prefetching
	// inside a pipelined section, combining Equations 2 and 4.
	Prefetch bool
	Seed     uint64
}

// DefaultRNAConfig matches the experiment scale: a 4096×1024 table
// (32 MiB) in 8 column tiles, 10 iterations as in §5.1.
func DefaultRNAConfig() RNAConfig {
	return RNAConfig{Rows: 4096, Cols: 1024, Tiles: 8, Iterations: 10, Seed: 0x52A}
}

func (cfg RNAConfig) strip() int { return cfg.Cols / cfg.Tiles }

// rnaScore is the static per-cell score s(i,j).
func rnaScore(cfg RNAConfig, i, j int) float64 {
	return hash64(cfg.Seed, i*cfg.Cols+j)
}

// RNAProgram builds the structural IR: one pipelined section (the
// wavefront) followed by a score reduction.
func RNAProgram(cfg RNAConfig) *program.Program {
	if cfg.Cols%cfg.Tiles != 0 {
		panic("rna: Cols must be divisible by Tiles")
	}
	return &program.Program{
		Name: "rna",
		Variables: []program.Variable{
			{Name: "T", ElemBytes: int64(cfg.Cols) * 8, Elems: cfg.Rows, Distributed: true},
		},
		Sections: []program.Section{
			{
				Name:  "wavefront",
				Tiles: cfg.Tiles,
				Stages: []program.Stage{{
					Name:        "dp",
					WorkPerElem: float64(cfg.Cols),
					Uses:        []program.VarRef{{Name: "T", Write: true}},
					Prefetch:    cfg.Prefetch,
				}},
				Comm:                program.CommPipeline,
				MsgBytesPerNeighbor: int64(cfg.strip()) * 8,
			},
			{
				Name:  "score",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "local-score",
					WorkPerElem: 1,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
		},
		Iterations:   cfg.Iterations,
		WorkUnitCost: 4e-7,
	}
}

// NewRNA builds the runnable application.
func NewRNA(cfg RNAConfig) *exec.App {
	prog := RNAProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &rnaState{cfg: cfg}
		},
	}
}

type rnaState struct {
	cfg RNAConfig
	// haloStrip is the upstream neighbour's last-row strip for the
	// current tile (zeros for the pipeline head).
	haloStrip []float64
	// carryStrip is my last updated row's strip for the current tile,
	// rewritten in place while processing and forwarded downstream.
	carryStrip []float64
	// lastCol[i] is local row i's value at the rightmost column of the
	// previously processed tile (the T[i][j−1] dependency across strips).
	lastCol []float64
	// score accumulates the local score; GlobalScore holds the reduction
	// result for verification.
	score       float64
	GlobalScore float64
	// msg and red are BoundaryMsg's and ReduceVal's reusable results;
	// Send and the reduction copy them.
	msg []byte
	red [1]float64
}

func (s *rnaState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		// The table starts at zero, laid out tile-major on disk.
		nc.R.Disk().Store("T", nc.NewArray("T"))
	}
	s.haloStrip = make([]float64, cfg.strip())
	s.carryStrip = make([]float64, cfg.strip())
	s.lastCol = make([]float64, nc.Count)
}

func (s *rnaState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	cfg := s.cfg
	switch sec {
	case 0:
		strip := cfg.strip()
		// carryStrip rolls the previous row's strip (current iteration)
		// in place: at column j it holds row i−1's value until row i's
		// replaces it. lastCol carries each row's left edge in and its
		// right edge out; tile 0's left edge is zero.
		up := s.carryStrip[:strip]
		if gRow == nc.Start {
			if nc.ActiveIndex() == 0 {
				clear(up) // table boundary row: zeros
			} else {
				copy(up, s.haloStrip)
			}
		}
		score := s.score
		if gRow == nc.Start && tile == 0 {
			score = 0
			clear(s.lastCol)
		}
		// Rows go in fours through rnaRowQuad; strips narrower than
		// four columns, and the up to three rows left over, go singly
		// through rnaRow.
		b := f64s(buf)
		edge := s.lastCol[gRow-nc.Start:][:nRows]
		for i := 0; i < nRows; {
			cell := (gRow+i)*cfg.Cols + tile*strip // rnaScore's index of the row's first cell
			rows := b[i*strip:]
			switch {
			case strip >= 4 && nRows-i >= 4:
				rnaRowQuad(cfg.Seed, cell, cfg.Cols, up, rows[:4*strip], edge[i:i+4])
				i += 4
			default:
				edge[i] = rnaRow(cfg.Seed, cell, up, rows[:strip], edge[i])
				i++
			}
		}
		if tile == cfg.Tiles-1 {
			for _, v := range edge {
				score += v // each row's final-column value
			}
		}
		s.score = score
		return chunkWork(float64(nRows)*float64(strip), buf)
	case 1:
		return float64(nRows)
	default:
		panic("rna: unexpected section")
	}
}

// rnaCell is the recurrence at the cell whose score key is z:
// 0.5·max(up, left) + s(cell), with z = hashKey(seed, cell). The builtin
// max is branch-free; it differs from compare-and-select only on NaN and
// −0, which no cell holds (each is a score in [0, 1) plus half a cell or
// zero). Being NaN- and −0-safe, it compiles on amd64 to two dependent
// MINSDs between sign flips, so one cell costs about 19 cycles of
// latency on the chain through left.
func rnaCell(z uint64, up, left float64) float64 {
	return 0.5*max(up, left) + mix64(z)
}

// rnaRow computes one row of a strip, row[j] = rnaCell at cell+j from
// up[j] and left, the value just computed; it rolls the row into up and
// returns its last value. Each cell waits for its left neighbour, so the
// row is one serial chain.
func rnaRow(seed uint64, cell int, up, row []float64, left float64) float64 {
	up = up[:len(row)]
	z := hashKey(seed, cell)
	for j := range row {
		left = rnaCell(z, up[j], left)
		row[j], up[j] = left, left
		z += hashStep
	}
	return left
}

// rnaRowQuad is rnaRow over the four consecutive rows in rows, each
// len(up) ≥ 4 long with scores cols apart, taking their left edges from
// edge and leaving their right edges there. Row k runs k columns behind
// row 0, so four serial chains overlap, enough to leave hash64 the
// bound; each cell sees the same operands in the same order as under
// rnaRow. up ends holding the last row.
func rnaRowQuad(seed uint64, cell, cols int, up, rows, edge []float64) {
	n := len(up)
	r0, r1, r2, r3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:4*n]
	c1, c2, c3 := cell+cols, cell+2*cols, cell+3*cols
	l0, l1, l2, l3 := edge[0], edge[1], edge[2], edge[3]
	// Prologue: columns 0–2 of row 0, 0–1 of row 1, 0 of row 2.
	l0 = rnaCell(hashKey(seed, cell), up[0], l0)
	r0[0] = l0
	u1 := l0
	l0 = rnaCell(hashKey(seed, cell+1), up[1], l0)
	l1 = rnaCell(hashKey(seed, c1), u1, l1)
	r0[1], r1[0] = l0, l1
	u1, u2 := l0, l1
	l0 = rnaCell(hashKey(seed, cell+2), up[2], l0)
	l1 = rnaCell(hashKey(seed, c1+1), u1, l1)
	l2 = rnaCell(hashKey(seed, c2), u2, l2)
	r0[2], r1[1], r2[0] = l0, l1, l2
	// The steady state: at step k, row 0 is at column k+3 and row 3 at
	// column k. Skewed views give every row the same index, and zr
	// steps row r's score key along it.
	z0, z1, z2, z3 := hashKey(seed, cell+3), hashKey(seed, c1+2), hashKey(seed, c2+1), hashKey(seed, c3)
	m := n - 3
	a0, a1, a2, a3 := r0[3:][:m], r1[2:][:m], r2[1:][:m], r3[:m]
	in, out := up[3:][:m], up[:m]
	for k := range a3 {
		u1, u2, u3 := l0, l1, l2 // the cells above rows 1–3
		l0 = rnaCell(z0, in[k], l0)
		l1 = rnaCell(z1, u1, l1)
		l2 = rnaCell(z2, u2, l2)
		l3 = rnaCell(z3, u3, l3)
		a0[k], a1[k], a2[k], a3[k], out[k] = l0, l1, l2, l3, l3
		z0, z1, z2, z3 = z0+hashStep, z1+hashStep, z2+hashStep, z3+hashStep
	}
	// Epilogue: the last column of row 1, the last two of row 2, the
	// last three of row 3.
	u1, u2, u3 := l0, l1, l2
	l1 = rnaCell(z1, u1, l1)
	l2 = rnaCell(z2, u2, l2)
	l3 = rnaCell(z3, u3, l3)
	r1[n-1], r2[n-2], r3[n-3], up[n-3] = l1, l2, l3, l3
	u2, u3 = l1, l2
	z2, z3 = z2+hashStep, z3+hashStep
	l2 = rnaCell(z2, u2, l2)
	l3 = rnaCell(z3, u3, l3)
	r2[n-1], r3[n-2], up[n-2] = l2, l3, l3
	z3 += hashStep
	l3 = rnaCell(z3, l2, l3)
	r3[n-1], up[n-1] = l3, l3
	edge[0], edge[1], edge[2], edge[3] = l0, l1, l2, l3
}

func (s *rnaState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	s.msg = f64sToBytesInto(s.msg, s.carryStrip)
	return s.msg
}

func (s *rnaState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {
	s.haloStrip = bytesToF64sInto(s.haloStrip, data)
}

func (s *rnaState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	s.red[0] = s.score
	return s.red[:]
}

func (s *rnaState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	s.GlobalScore = vals[0]
}

// RNAReference computes the table sequentially: a plain row-major sweep
// per iteration, which the pipelined parallel version reproduces exactly
// (the wavefront decomposition does not change the arithmetic). It
// returns the final table and total score (Σ of last-column values).
func RNAReference(cfg RNAConfig, iters int) ([][]float64, float64) {
	t := make([][]float64, cfg.Rows)
	for i := range t {
		t[i] = make([]float64, cfg.Cols)
	}
	score := 0.0
	for it := 0; it < iters; it++ {
		score = 0
		for i := 0; i < cfg.Rows; i++ {
			for j := 0; j < cfg.Cols; j++ {
				up := 0.0
				if i > 0 {
					up = t[i-1][j]
				}
				left := 0.0
				if j > 0 {
					left = t[i][j-1]
				}
				m := up
				if left > m {
					m = left
				}
				t[i][j] = 0.5*m + rnaScore(cfg, i, j)
			}
			score += t[i][cfg.Cols-1]
		}
	}
	return t, score
}
