package apps

import (
	"math"

	"mheta/internal/exec"
	"mheta/internal/program"
)

// Lanczos: the paper's full-scale application — "the Lanzcos iterative
// method for solving a linear system Ax = b, where A is a symmetric,
// positive definite, N×N dense matrix, and x and b are column vectors".
// Each iteration performs one Lanczos step: a dense matrix-vector product
// over the row-distributed, read-only, out-of-core matrix, two dot-product
// reductions (α and β), and a gather of the next basis vector. The matrix
// is never written back (§4.2.1: "For the Conjugate Gradient and Lanzcos
// applications, the array is read-only, and no writes are performed").

// LanczosConfig sizes the benchmark.
type LanczosConfig struct {
	N          int
	Iterations int
	Seed       uint64
}

// DefaultLanczosConfig matches the experiment scale: a 1536×1536 dense
// matrix (18 MiB, 12 KiB rows), 5 iterations as in §5.1.
func DefaultLanczosConfig() LanczosConfig {
	return LanczosConfig{N: 1536, Iterations: 5, Seed: 0x1A2C}
}

// lanczosEntry is the dense SPD matrix: diagonally dominant with smooth
// off-diagonal decay plus a deterministic symmetric perturbation.
func lanczosEntry(cfg LanczosConfig, i, j int) float64 {
	if i == j {
		return float64(cfg.N) + 4 + hash64(cfg.Seed, i)
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	d := hi - lo
	return (0.2 + 0.6*hash64(cfg.Seed^0xD1A6, lo*cfg.N+hi)) / float64(1+d)
}

// lanczosB is the right-hand side / starting vector source.
func lanczosB(cfg LanczosConfig, i int) float64 { return 1 + hash64(cfg.Seed^0xB0, i) }

// LanczosProgram builds the structural IR: matvec + α reduction, local
// orthogonalisation + β reduction, normalisation + basis-vector gather.
func LanczosProgram(cfg LanczosConfig) *program.Program {
	return &program.Program{
		Name: "lanczos",
		Variables: []program.Variable{
			{Name: "A", ElemBytes: int64(cfg.N) * 8, Elems: cfg.N, Distributed: true, ReadOnly: true},
		},
		Sections: []program.Section{
			{
				Name:  "matvec",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "w=Av",
					WorkPerElem: float64(cfg.N),
					Uses:        []program.VarRef{{Name: "A"}},
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
			{
				Name:  "orthogonalize",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "w-=av-bv'",
					WorkPerElem: 5,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
			{
				Name:  "normalize",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "v''=w/b",
					WorkPerElem: 2,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: int64(cfg.N) * 8,
			},
		},
		Iterations:   cfg.Iterations,
		WorkUnitCost: 1e-6,
	}
}

// NewLanczos builds the runnable application.
func NewLanczos(cfg LanczosConfig) *exec.App {
	prog := LanczosProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &lanczosState{cfg: cfg}
		},
	}
}

type lanczosState struct {
	cfg LanczosConfig
	// v, vPrev are the replicated Lanczos basis vectors; w is the local
	// block of the work vector.
	v, vPrev []float64
	oldV     []float64
	w        []float64
	alpha    float64
	betaPrev float64
	local    float64
	// Alphas and Betas record the tridiagonal coefficients for
	// verification against the sequential reference.
	Alphas, Betas []float64
	// red and gather are ReduceVal's reusable results; the reduction
	// copies them. gather is zero outside the local block, which is the
	// only part ever written.
	red    [1]float64
	gather []float64
}

func (s *lanczosState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		block := nc.NewArray("A")
		a := f64s(block)
		for i := 0; i < nc.Count; i++ {
			row := a[i*cfg.N:][:cfg.N]
			for j := range row {
				row[j] = lanczosEntry(cfg, nc.Start+i, j)
			}
		}
		nc.R.Disk().Store("A", block)
	}
	// v1 = b/‖b‖ — deterministic, so every rank computes it locally.
	s.v = make([]float64, cfg.N)
	norm := 0.0
	for i := 0; i < cfg.N; i++ {
		s.v[i] = lanczosB(cfg, i)
		norm += s.v[i] * s.v[i]
	}
	norm = math.Sqrt(norm)
	for i := range s.v {
		s.v[i] /= norm
	}
	s.vPrev = make([]float64, cfg.N)
	s.w = make([]float64, nc.Count)
}

func (s *lanczosState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	cfg := s.cfg
	switch sec {
	case 0: // w_local = A·v over a chunk of rows; accumulate v·w
		if gRow == nc.Start {
			s.local = 0
		}
		a := f64s(buf)
		v := s.v[:cfg.N]
		for i := 0; i < nRows; i++ {
			gi := gRow + i
			li := gi - nc.Start
			sum := 0.0
			for j, x := range a[i*cfg.N:][:cfg.N] {
				sum += x * v[j]
			}
			s.w[li] = sum
			s.local += s.v[gi] * sum
		}
		return chunkWork(float64(nRows)*float64(cfg.N), buf)
	case 1: // w −= αv − β_{k−1}v_{k−1}; accumulate ‖w‖²
		local := 0.0
		for li := 0; li < nc.Count; li++ {
			gi := nc.Start + li
			s.w[li] -= s.alpha*s.v[gi] + s.betaPrev*s.vPrev[gi]
			local += s.w[li] * s.w[li]
		}
		s.local = local
		return 5 * float64(nc.Count)
	case 2: // v_{k+1} = w/β (local block; the reduction gathers it)
		s.oldV = append(s.oldV[:0], s.v...)
		beta := s.betaPrev
		for li := 0; li < nc.Count; li++ {
			gi := nc.Start + li
			if beta != 0 {
				s.v[gi] = s.w[li] / beta
			} else {
				s.v[gi] = 0
			}
		}
		return 2 * float64(nc.Count)
	default:
		panic("lanczos: unexpected section")
	}
}

func (s *lanczosState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte { return nil }

func (s *lanczosState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {}

func (s *lanczosState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	switch sec {
	case 0, 1:
		s.red[0] = s.local
		return s.red[:]
	case 2:
		if s.gather == nil {
			s.gather = make([]float64, s.cfg.N)
		}
		copy(s.gather[nc.Start:nc.Start+nc.Count], s.v[nc.Start:])
		return s.gather
	default:
		panic("lanczos: unexpected reduction")
	}
}

func (s *lanczosState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	switch sec {
	case 0:
		s.alpha = vals[0]
		s.Alphas = append(s.Alphas, s.alpha)
	case 1:
		s.betaPrev = math.Sqrt(vals[0])
		s.Betas = append(s.Betas, s.betaPrev)
	case 2:
		// The gather carries the new v; the snapshot taken in Process
		// becomes vPrev.
		copy(s.vPrev, s.oldV)
		copy(s.v, vals)
	}
}

// LanczosReference runs the same Lanczos recurrence sequentially and
// returns the α and β sequences.
func LanczosReference(cfg LanczosConfig, iters int) (alphas, betas []float64) {
	n := cfg.N
	v := make([]float64, n)
	vPrev := make([]float64, n)
	w := make([]float64, n)
	norm := 0.0
	for i := 0; i < n; i++ {
		v[i] = lanczosB(cfg, i)
		norm += v[i] * v[i]
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	betaPrev := 0.0
	for it := 0; it < iters; it++ {
		alpha := 0.0
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += lanczosEntry(cfg, i, j) * v[j]
			}
			w[i] = sum
			alpha += v[i] * sum
		}
		alphas = append(alphas, alpha)
		beta2 := 0.0
		for i := 0; i < n; i++ {
			w[i] -= alpha*v[i] + betaPrev*vPrev[i]
			beta2 += w[i] * w[i]
		}
		betaPrev = math.Sqrt(beta2)
		betas = append(betas, betaPrev)
		for i := 0; i < n; i++ {
			vPrev[i] = v[i]
			if betaPrev != 0 {
				v[i] = w[i] / betaPrev
			} else {
				v[i] = 0
			}
		}
	}
	return alphas, betas
}
