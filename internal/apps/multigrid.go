package apps

import (
	"fmt"
	"math"

	"mheta/internal/exec"
	"mheta/internal/program"
)

// Multigrid: the application the paper names as in-progress future work
// ("We are currently implementing more applications (including Multigrid)
// to further increase the types of applications to test MHETA with a
// wider range of relative communication, computation, and I/O costs",
// §6). Each iteration is a two-grid V-cycle over a Rows×Cols grid
// distributed by rows:
//
//	S0 pre-smooth on the fine grid        → nearest-neighbour exchange
//	S1 restrict the residual to the coarse grid (even rows)
//	                                      → nearest-neighbour exchange
//	S2 smooth on the coarse grid          → nearest-neighbour exchange
//	S3 prolongate the correction and post-smooth
//	                                      → nearest-neighbour exchange
//	S4 compute the local residual         → global reduction
//
// Five parallel sections with four boundary exchanges per iteration give
// MHETA a communication-heavy profile unlike the other benchmarks. Rows
// are stored as (fine row ‖ workspace row), so one distributed variable
// carries both levels; coarse-grid work only touches even global rows,
// which — like CG's sparsity — makes per-row cost nonuniform in a way the
// model's uniform scaling cannot see.

// MGConfig sizes the benchmark.
type MGConfig struct {
	Rows, Cols int
	Iterations int
	// Smooths is the number of sweeps in each smoothing stage.
	Smooths int
	Seed    uint64
}

// DefaultMGConfig matches the experiment scale: 2560×320 (5 KiB combined
// rows, ~12.5 MiB total — out of core on the 1 MiB "small memory" nodes
// under Blk), 20 V-cycles.
func DefaultMGConfig() MGConfig {
	return MGConfig{Rows: 2560, Cols: 320, Iterations: 20, Smooths: 1, Seed: 0x316}
}

// mgElemBytes: fine row plus workspace row.
func (cfg MGConfig) mgElemBytes() int64 { return int64(cfg.Cols) * 8 * 2 }

// MGProgram builds the structural IR.
func MGProgram(cfg MGConfig) *program.Program {
	ms := int64(cfg.Cols) * 8 // boundary message: one fine row
	sweep := func(name string, work float64) program.Section {
		return program.Section{
			Name:  name,
			Tiles: 1,
			Stages: []program.Stage{{
				Name:        name,
				WorkPerElem: work,
				Uses:        []program.VarRef{{Name: "U", Write: true}},
			}},
			Comm:                program.CommNearestNeighbor,
			MsgBytesPerNeighbor: ms,
		}
	}
	return &program.Program{
		Name: "multigrid",
		Variables: []program.Variable{
			{Name: "U", ElemBytes: cfg.mgElemBytes(), Elems: cfg.Rows, Distributed: true, Sparse: true},
		},
		Sections: []program.Section{
			sweep("pre-smooth", float64(cfg.Cols)),
			sweep("restrict", float64(cfg.Cols)/2),
			sweep("coarse-smooth", float64(cfg.Cols)/2),
			sweep("prolong-post", float64(cfg.Cols)*1.5),
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
	}
}

// NewMultigrid builds the runnable application.
func NewMultigrid(cfg MGConfig) *exec.App {
	prog := MGProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &mgState{cfg: cfg}
		},
	}
}

// mgState implements the V-cycle kernels. All sweeps run top-to-bottom
// with an upward dependency only (like the Jacobi benchmark), carrying
// the previous updated row downward and using the upstream neighbour's
// previous-exchange row at block boundaries — so a sequential reference
// with the same halo protocol reproduces the values exactly.
type mgState struct {
	cfg MGConfig
	// halo[s] is the upstream boundary row for section s's sweep (fine
	// for S0/S3, workspace for S1/S2).
	halo [4][]float64
	// carry is the last processed row of the current sweep; firstRow the
	// first, both captured per section for the exchanges. spare is
	// carry's partner in the row ping-pong.
	carry, firstRow, spare []float64
	residual               float64
	// GlobalResidual is the reduction result, for verification.
	GlobalResidual float64
	// msg and red are BoundaryMsg's and ReduceVal's reusable results;
	// Send and the reduction copy them.
	msg []byte
	red [1]float64
}

// mgInitRowInto writes the initial fine-row values of global row i into
// row, which holds cfg.Cols values, and returns it; the workspace starts
// zero.
func mgInitRowInto(row []float64, cfg MGConfig, i int) []float64 {
	for j := range row {
		row[j] = hash64(cfg.Seed, i*cfg.Cols+j)
	}
	return row
}

func (s *mgState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		block := nc.NewArray("U")
		u := f64s(block)
		for i := 0; i < nc.Count; i++ {
			// The fine half of each row; the workspace half stays zero.
			mgInitRowInto(u[2*cfg.Cols*i:][:cfg.Cols], cfg, nc.Start+i)
		}
		nc.R.Disk().Store("U", block)
	}
	for sec := range s.halo {
		if nc.Start > 0 {
			if sec == 1 || sec == 2 {
				s.halo[sec] = make([]float64, cfg.Cols) // workspace starts zero
			} else {
				s.halo[sec] = mgInitRowInto(make([]float64, cfg.Cols), cfg, nc.Start-1)
			}
		} else {
			s.halo[sec] = make([]float64, cfg.Cols)
		}
	}
	s.carry = make([]float64, cfg.Cols)
	s.spare = make([]float64, cfg.Cols)
	s.firstRow = make([]float64, cfg.Cols)
}

func (s *mgState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	cfg := s.cfg
	if sec == 4 {
		return float64(nRows)
	}
	cols := cfg.Cols
	// prev is the row above, out receives this row's values; the two
	// swap after every row. They cannot be one rolling row as in Jacobi,
	// because each smoothing sweep of a row reads the same fixed prev.
	prev, out := s.carry, s.spare
	if gRow == nc.Start {
		copy(prev, s.halo[sec])
		if sec == 0 {
			s.residual = 0
		}
	}
	prev, out = prev[:cols], out[:cols]
	res := s.residual
	work := 0.0
	u := f64s(buf)
	for i := 0; i < nRows; i++ {
		gi := gRow + i
		fine := u[2*cols*i:][:cols]    // the fine row
		ws := u[2*cols*i+cols:][:cols] // its workspace row
		switch sec {
		case 0, 3: // smoothing sweeps on the fine grid
			for sw := 0; sw < cfg.Smooths; sw++ {
				left := fine[0] // column 0 is its own left neighbour
				for j, old := range fine {
					v := 0.25*prev[j] + 0.5*old + 0.25*left
					if sec == 3 {
						// prolongation: add the coarse correction first
						v += 0.5 * ws[j]
					}
					fine[j] = v
					out[j] = v
					left = v
					if sec == 3 {
						res += math.Abs(v - old)
					}
				}
			}
			work += float64(cols)
			if sec == 3 {
				work += float64(cols) / 2
			}
		case 1: // restriction: residual of fine rows onto even-row workspace
			if gi%2 == 0 {
				for j, f := range fine {
					r := f - prev[j]
					ws[j] = 0.5 * r
					out[j] = 0.5 * r
				}
				work += float64(cols) / 2
			} else {
				clear(ws)
				clear(out)
			}
		case 2: // coarse smooth: workspace sweep on even rows
			if gi%2 == 0 {
				left := ws[0]
				for j, old := range ws {
					v := 0.25*prev[j] + 0.5*old + 0.25*left
					ws[j] = v
					out[j] = v
					left = v
				}
				work += float64(cols) / 2
			} else {
				copy(out, prev) // pass the coarse row downward
			}
		}
		prev, out = out, prev
		if gi == nc.Start {
			copy(s.firstRow, prev)
		}
	}
	s.carry, s.spare = prev, out
	s.residual = res
	return chunkWork(work, buf)
}

func (s *mgState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	if dir > 0 {
		s.msg = f64sToBytesInto(s.msg, s.carry)
	} else {
		s.msg = f64sToBytesInto(s.msg, s.firstRow)
	}
	return s.msg
}

func (s *mgState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {
	if dir < 0 {
		s.halo[sec] = bytesToF64sInto(s.halo[sec], data)
	}
}

func (s *mgState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	s.red[0] = s.residual
	return s.red[:]
}

func (s *mgState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	s.GlobalResidual = vals[0]
}

// MGReference runs the identical V-cycle sequentially with the same
// block-halo protocol. It returns the final fine grid.
func MGReference(cfg MGConfig, blocks []int, iters int) [][]float64 {
	n := cfg.Rows
	fine := make([][]float64, n)
	ws := make([][]float64, n)
	for i := range fine {
		fine[i] = mgInitRowInto(make([]float64, cfg.Cols), cfg, i)
		ws[i] = make([]float64, cfg.Cols)
	}
	starts := make([]int, len(blocks))
	sum := 0
	for p, b := range blocks {
		starts[p] = sum
		sum += b
	}
	// halos[sec][p]
	halos := make([][][]float64, 4)
	for sec := range halos {
		halos[sec] = make([][]float64, len(blocks))
		for p := range blocks {
			if starts[p] > 0 {
				if sec == 1 || sec == 2 {
					halos[sec][p] = make([]float64, cfg.Cols)
				} else {
					halos[sec][p] = mgInitRowInto(make([]float64, cfg.Cols), cfg, starts[p]-1)
				}
			} else {
				halos[sec][p] = make([]float64, cfg.Cols)
			}
		}
	}
	upOf := func(p int) int {
		for q := p - 1; q >= 0; q-- {
			if blocks[q] > 0 {
				return q
			}
		}
		return -1
	}
	for it := 0; it < iters; it++ {
		for sec := 0; sec < 4; sec++ {
			lastRow := make([][]float64, len(blocks))
			for p, b := range blocks {
				if b == 0 {
					continue
				}
				prev := halos[sec][p]
				for i := starts[p]; i < starts[p]+b; i++ {
					var rowOut []float64
					switch sec {
					case 0, 3:
						rowOut = make([]float64, cfg.Cols)
						for sw := 0; sw < cfg.Smooths; sw++ {
							for j := 0; j < cfg.Cols; j++ {
								old := fine[i][j]
								left := old
								if j > 0 {
									left = fine[i][j-1]
								}
								v := 0.25*prev[j] + 0.5*old + 0.25*left
								if sec == 3 {
									v += 0.5 * ws[i][j]
								}
								fine[i][j] = v
								rowOut[j] = v
							}
						}
					case 1:
						rowOut = make([]float64, cfg.Cols)
						if i%2 == 0 {
							for j := 0; j < cfg.Cols; j++ {
								ws[i][j] = 0.5 * (fine[i][j] - prev[j])
								rowOut[j] = ws[i][j]
							}
						} else {
							for j := 0; j < cfg.Cols; j++ {
								ws[i][j] = 0
							}
						}
					case 2:
						rowOut = make([]float64, cfg.Cols)
						if i%2 == 0 {
							for j := 0; j < cfg.Cols; j++ {
								old := ws[i][j]
								left := old
								if j > 0 {
									left = ws[i][j-1]
								}
								v := 0.25*prev[j] + 0.5*old + 0.25*left
								ws[i][j] = v
								rowOut[j] = v
							}
						} else {
							copy(rowOut, prev)
						}
					}
					prev = rowOut
				}
				lastRow[p] = prev
			}
			// Exchange: each block's next-iteration halo for this section
			// is the upstream block's final sweep row.
			for p, b := range blocks {
				if b == 0 {
					continue
				}
				if up := upOf(p); up >= 0 {
					halos[sec][p] = append([]float64(nil), lastRow[up]...)
				}
			}
		}
	}
	return fine
}

// sanity check that the IR and kernel agree on the section count.
var _ = func() int {
	if n := len(MGProgram(DefaultMGConfig()).Sections); n != 5 {
		panic(fmt.Sprintf("multigrid: %d sections", n))
	}
	return 0
}()
