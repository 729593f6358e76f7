package apps

import (
	"fmt"
	"math"

	"mheta/internal/exec"
	"mheta/internal/program"
)

// Jacobi iteration: the paper's simplest benchmark (Figure 1's shape).
// A dense Rows×Cols grid is distributed by rows; each iteration sweeps
// the local block top-to-bottom updating rows in place from the row above
// (block-relaxation: the halo row comes from the upstream neighbour's
// state at the end of the previous iteration), then exchanges boundary
// rows with both neighbours, then computes a local residual that a global
// reduction combines — the canonical two-section, nearest-neighbour +
// reduction structure.
//
// The grid is read *and written* each pass, so out-of-core nodes pay both
// read and write latencies per ICLA (§4.2.1: "Any time the node reads
// data from disk, there is a corresponding write ... such as in our
// Jacobi application").

// JacobiConfig sizes the benchmark.
type JacobiConfig struct {
	Rows, Cols int
	Iterations int
	// Prefetch unrolls the ICLA loop (Figure 6) — the "Jacobi with
	// prefetching" variant of Figure 9's top-right panel.
	Prefetch bool
	// IterWeights makes iterations nonuniform (§3.1's optional case, e.g.
	// an adaptive solver doing less work as it converges). Nil = uniform.
	IterWeights []float64
	Seed        uint64
}

// DefaultJacobiConfig matches the experiment scale: a 4096×512 float64
// grid (16 MiB — in core on unconstrained 8 MiB nodes under Blk, out of
// core on 1 MiB "small memory" nodes) for 100 iterations, as in §5.1.
func DefaultJacobiConfig() JacobiConfig {
	return JacobiConfig{Rows: 4096, Cols: 512, Iterations: 100, Seed: 0x1ACB1}
}

// JacobiProgram builds the structural IR.
func JacobiProgram(cfg JacobiConfig) *program.Program {
	name := "jacobi"
	if cfg.Prefetch {
		name = "jacobi-prefetch"
	}
	return &program.Program{
		Name: name,
		Variables: []program.Variable{
			{Name: "B", ElemBytes: int64(cfg.Cols) * 8, Elems: cfg.Rows, Distributed: true},
		},
		Sections: []program.Section{
			{
				Name:  "relax",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "update",
					WorkPerElem: float64(cfg.Cols),
					Uses:        []program.VarRef{{Name: "B", Write: true}},
					Prefetch:    cfg.Prefetch,
				}},
				Comm:                program.CommNearestNeighbor,
				MsgBytesPerNeighbor: int64(cfg.Cols) * 8,
			},
			{
				Name:  "residual",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "local-residual",
					WorkPerElem: 1,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
		},
		Iterations:   cfg.Iterations,
		WorkUnitCost: 4e-7,
		IterWeights:  cfg.IterWeights,
	}
}

// NewJacobi builds the runnable application.
func NewJacobi(cfg JacobiConfig) *exec.App {
	prog := JacobiProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &jacobiState{cfg: cfg}
		},
	}
}

type jacobiState struct {
	cfg JacobiConfig
	// haloUp is the upstream neighbour's last row (previous iteration's
	// values); for the first active node it is the fixed boundary row.
	haloUp []float64
	// haloDown is the downstream neighbour's first row (unused by the
	// upward-dependent kernel but exchanged, matching the benchmark's
	// bidirectional boundary traffic).
	haloDown []float64
	// carry is the last updated row, fed to the next chunk and sent
	// downstream after the sweep; the sweep rewrites it in place.
	carry []float64
	// firstRow is the block's first row after the sweep (sent upstream).
	firstRow []float64
	// residual accumulates Σ|Δ| over the local sweep.
	residual float64
	// GlobalResidual is the reduction result, exposed for verification.
	GlobalResidual float64
	// msg and red are BoundaryMsg's and ReduceVal's reusable results:
	// Send copies its payload and the reduction copies its input, so
	// each call may overwrite the last.
	msg []byte
	red [1]float64
}

// jacobiBoundaryRowInto writes the initial value of global row i into
// row, which holds cfg.Cols values, and returns it.
func jacobiBoundaryRowInto(row []float64, cfg JacobiConfig, i int) []float64 {
	for j := range row {
		row[j] = hash64(cfg.Seed, i*cfg.Cols+j)
	}
	return row
}

func (s *jacobiState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		// Lay the local block out on disk (Local Placement rule).
		block := make([]byte, int64(nc.Count)*int64(cfg.Cols)*8)
		b := f64s(block)
		for k := range b {
			b[k] = hash64(cfg.Seed, nc.Start*cfg.Cols+k)
		}
		nc.R.Disk().Store("B", block)
	}
	// The four rows share one allocation; each is capacity-clipped so
	// none can grow into the next.
	c := cfg.Cols
	rows := make([]float64, 4*c)
	s.haloUp, s.haloDown = rows[:c:c], rows[c:2*c:2*c]
	s.carry, s.firstRow = rows[2*c:3*c:3*c], rows[3*c:]
	// Initial halos come from the initial dataset, which every rank can
	// materialise deterministically. Above the first block, row -1 is
	// the fixed synthetic boundary; below the last, the halo stays zero.
	jacobiBoundaryRowInto(s.haloUp, cfg, nc.Start-1)
	if nc.Start+nc.Count < cfg.Rows {
		jacobiBoundaryRowInto(s.haloDown, cfg, nc.Start+nc.Count)
	}
}

func (s *jacobiState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	cfg := s.cfg
	switch sec {
	case 0: // relax sweep over a chunk of B
		// carry rolls the "up" row in place: at column j it still holds
		// row i−1's value until row i's replaces it. math.Abs is
		// branch-free; it differs from compare-and-negate only at −0,
		// which adds nothing to a sum that starts at +0.
		cols := cfg.Cols
		up := s.carry[:cols]
		res := s.residual
		if gRow == nc.Start {
			copy(up, s.haloUp)
			res = 0
		}
		b := f64s(buf)
		for i := 0; i < nRows; i++ {
			row := b[i*cols:][:cols]
			left := row[0] // column 0 is its own left neighbour
			for j, old := range row {
				v := 0.25*up[j] + 0.5*old + 0.25*left
				row[j] = v
				up[j] = v
				left = v
				res += math.Abs(v - old)
			}
			if gRow+i == nc.Start {
				copy(s.firstRow, up)
			}
		}
		s.residual = res
		return chunkWork(float64(nRows)*float64(cols), buf)
	case 1: // local residual bookkeeping (cheap, in-memory)
		return float64(nRows)
	default:
		panic(fmt.Sprintf("jacobi: unexpected section %d", sec))
	}
}

func (s *jacobiState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	if dir > 0 {
		s.msg = f64sToBytesInto(s.msg, s.carry) // my last row, downstream
	} else {
		s.msg = f64sToBytesInto(s.msg, s.firstRow) // my first row, upstream
	}
	return s.msg
}

func (s *jacobiState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {
	if dir < 0 {
		s.haloUp = bytesToF64sInto(s.haloUp, data) // from the upstream neighbour
	} else {
		s.haloDown = bytesToF64sInto(s.haloDown, data)
	}
}

func (s *jacobiState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	s.red[0] = s.residual
	return s.red[:]
}

func (s *jacobiState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	s.GlobalResidual = vals[0]
}

// JacobiReference runs the identical block-relaxation sequentially for
// verification: same distribution, same halo protocol (halos update at
// iteration boundaries), same kernel. It returns the final grid and each
// block's residual Σ|Δ| over the last iteration, summed in the kernel's
// order (zero for an empty block); the emulated run's GlobalResidual is
// their reduction.
func JacobiReference(cfg JacobiConfig, blocks []int, iters int) ([][]float64, []float64) {
	grid := make([][]float64, cfg.Rows)
	for i := range grid {
		grid[i] = jacobiBoundaryRowInto(make([]float64, cfg.Cols), cfg, i)
	}
	starts := make([]int, len(blocks))
	s := 0
	for p, b := range blocks {
		starts[p] = s
		s += b
	}
	halos := make([][]float64, len(blocks))
	for p := range blocks {
		if starts[p] > 0 {
			halos[p] = append([]float64(nil), grid[starts[p]-1]...)
		} else {
			halos[p] = jacobiBoundaryRowInto(make([]float64, cfg.Cols), cfg, -1)
		}
	}
	residuals := make([]float64, len(blocks))
	for it := 0; it < iters; it++ {
		// All blocks sweep using halos from the previous iteration.
		for p, b := range blocks {
			if b == 0 {
				continue
			}
			residual := 0.0
			prev := halos[p]
			for i := starts[p]; i < starts[p]+b; i++ {
				for j := 0; j < cfg.Cols; j++ {
					old := grid[i][j]
					left := old
					if j > 0 {
						left = grid[i][j-1]
					}
					v := 0.25*prev[j] + 0.5*old + 0.25*left
					grid[i][j] = v
					residual += math.Abs(v - old)
				}
				prev = grid[i]
			}
			residuals[p] = residual
		}
		// Exchange: each block's halo becomes the upstream block's final
		// last row.
		for p, b := range blocks {
			if b == 0 {
				continue
			}
			// Find upstream active block.
			up := -1
			for q := p - 1; q >= 0; q-- {
				if blocks[q] > 0 {
					up = q
					break
				}
			}
			if up >= 0 {
				halos[p] = append([]float64(nil), grid[starts[up]+blocks[up]-1]...)
			}
		}
	}
	return grid, residuals
}
