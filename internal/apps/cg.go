package apps

import (
	"mheta/internal/exec"
	"mheta/internal/program"
)

// Conjugate Gradient, after the NAS benchmark: repeated sparse
// matrix-vector products over a large symmetric positive-definite matrix
// distributed by rows, punctuated by dot-product reductions and a
// gather of the updated direction vector.
//
// The matrix is the application MHETA struggles with (§5.4 limitation 3):
// the on-disk representation pads every row to a fixed slot count, so
// MHETA sees uniform elements, but the *work* per row follows the true
// nonzero count, which varies along the row space. The instrumented
// iteration measures a per-element compute rate blended over the base
// distribution's rows; scaling that rate by row counts mispredicts any
// distribution whose blocks land on differently-dense regions — "there is
// not a simple correlation between number of rows and number of elements
// per row, resulting in slight load imbalances in CG that our model did
// not predict".

// CGConfig sizes the benchmark.
type CGConfig struct {
	N          int // matrix dimension
	MaxBand    int // maximum half-bandwidth (peak of the density wave)
	MinBand    int // minimum half-bandwidth
	Iterations int
	Seed       uint64
}

// DefaultCGConfig matches the experiment scale: N=8192 with half-bandwidth
// varying 8..48 along the rows (padded rows of 112 slots ≈ 1.8 KiB; a
// ~14 MiB matrix), 10 iterations as in §5.1.
func DefaultCGConfig() CGConfig {
	return CGConfig{N: 8192, MaxBand: 48, MinBand: 8, Iterations: 10, Seed: 0xC6}
}

// cgSlots is the padded slot count per row: the widest possible band.
func (cfg CGConfig) cgSlots() int { return 2*cfg.MaxBand + 1 }

// cgElemBytes is the padded on-disk row size: 16 bytes per slot (column
// index + value).
func (cfg CGConfig) cgElemBytes() int64 { return int64(cfg.cgSlots()) * 16 }

// band returns row i's half-bandwidth w(i): a smooth wave along the row
// space, so nonzero density varies by region. A[i][j] ≠ 0 iff
// |i−j| ≤ min(w(i), w(j)) — a symmetric condition, so A is symmetric.
func (cfg CGConfig) band(i int) int {
	x := float64(i) / float64(cfg.N)
	// Three full density waves across the matrix.
	s := 0.5 + 0.5*sinApprox(2*pi*3*x)
	w := cfg.MinBand + int(s*float64(cfg.MaxBand-cfg.MinBand))
	if w < 1 {
		w = 1
	}
	return w
}

const pi = 3.141592653589793

// sinApprox is a deterministic sine sufficient for density shaping
// (avoids importing math just for the pattern; accuracy is irrelevant,
// determinism is not). Bhaskara's approximation, extended to all phases.
func sinApprox(x float64) float64 {
	// Reduce to [0, 2π).
	x -= float64(int(x/(2*pi))) * 2 * pi
	if x < 0 {
		x += 2 * pi
	}
	sign := 1.0
	if x > pi {
		x -= pi
		sign = -1
	}
	return sign * 16 * x * (pi - x) / (5*pi*pi - 4*x*(pi-x))
}

// cgBands holds the half-bandwidths of rows [lo, lo+len(w)), so that
// building a row looks each candidate column's band up instead of
// recomputing it.
type cgBands struct {
	lo int
	w  []int
}

// rowBands tabulates the bands that building rows [lo, hi) reads: those
// rows and MaxBand rows either side, clipped to the matrix.
func (cfg CGConfig) rowBands(lo, hi int) cgBands {
	lo, hi = max(lo-cfg.MaxBand, 0), min(hi+cfg.MaxBand, cfg.N)
	t := cgBands{lo: lo, w: make([]int, max(hi-lo, 0))}
	for k := range t.w {
		t.w[k] = cfg.band(lo + k)
	}
	return t
}

// cgRowInto writes row i into row, which holds 2·cgSlots values: slot
// pairs (col, val) for the true nonzeros, padded with (-1, 0). bands
// covers rows i−MaxBand..i+MaxBand (rowBands). Diagonal dominance makes
// A positive definite.
func cgRowInto(row []float64, cfg CGConfig, bands cgBands, i int) {
	w := bands.w
	wi := w[i-bands.lo]
	k := 0
	var offSum float64
	for j := i - wi; j <= i+wi; j++ {
		if j < 0 || j >= cfg.N || j == i {
			continue
		}
		d := i - j
		if d < 0 {
			d = -d
		}
		if d > w[j-bands.lo] {
			continue // symmetric band condition
		}
		row[k], row[k+1] = float64(j), -1.0/float64(1+d)
		k += 2
		offSum += 1.0 / float64(1+d)
	}
	row[k], row[k+1] = float64(i), 2*offSum+1 // diagonal: dominant → SPD
	for k += 2; k < len(row); k += 2 {
		row[k], row[k+1] = -1, 0
	}
}

// cgRowDot returns the dot product of a padded row with p, summed in
// slot order, and the row's nonzero count.
func cgRowDot(row, p []float64) (sum float64, nnz int) {
	for k := 0; k+1 < len(row); k += 2 {
		col := row[k]
		if col < 0 {
			continue
		}
		sum += row[k+1] * p[int(col)]
		nnz++
	}
	return sum, nnz
}

// cgB returns the right-hand side b.
func cgB(cfg CGConfig, i int) float64 { return 1 + hash64(cfg.Seed, i) }

// CGProgram builds the structural IR: three parallel sections per
// iteration — the out-of-core spmv ending in a dot-product reduction, the
// x/r update ending in a norm reduction, and the direction update ending
// in the p-vector gather (an N-element sum reduction).
func CGProgram(cfg CGConfig) *program.Program {
	return &program.Program{
		Name: "cg",
		Variables: []program.Variable{
			{Name: "A", ElemBytes: cfg.cgElemBytes(), Elems: cfg.N, Distributed: true, ReadOnly: true, Sparse: true},
		},
		Sections: []program.Section{
			{
				Name:  "spmv",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "q=Ap",
					WorkPerElem: float64(cfg.MaxBand + cfg.MinBand),
					Uses:        []program.VarRef{{Name: "A"}},
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
			{
				Name:  "xr-update",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "x+=ap,r-=aq",
					WorkPerElem: 4,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
			{
				Name:  "p-update",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "p=r+bp",
					WorkPerElem: 2,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: int64(cfg.N) * 8,
			},
		},
		Iterations:   cfg.Iterations,
		WorkUnitCost: 2e-6,
	}
}

// NewCG builds the runnable application.
func NewCG(cfg CGConfig) *exec.App {
	prog := CGProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &cgState{cfg: cfg}
		},
	}
}

type cgState struct {
	cfg CGConfig
	// Replicated direction vector (gathered each iteration).
	p []float64
	// Local blocks.
	x, r, q []float64
	// Scalars of the current iteration.
	rho, alpha, beta float64
	pq               float64 // local then global p·q
	// Rho is exposed for verification (global r·r after the iteration).
	Rho float64
	// red and gather are ReduceVal's reusable results; the reduction
	// copies them. gather is zero outside the local block, which is the
	// only part ever written.
	red    [1]float64
	gather []float64
}

func (s *cgState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		block := nc.NewArray("A")
		a, w := f64s(block), 2*cfg.cgSlots()
		bands := cfg.rowBands(nc.Start, nc.Start+nc.Count)
		for i := 0; i < nc.Count; i++ {
			cgRowInto(a[i*w:][:w], cfg, bands, nc.Start+i)
		}
		nc.R.Disk().Store("A", block)
	}
	// x=0, r=b, p=r, rho = r·r (global, computable locally since b is
	// deterministic).
	s.p = make([]float64, cfg.N)
	for i := range s.p {
		s.p[i] = cgB(cfg, i)
	}
	s.x = make([]float64, nc.Count)
	s.r = make([]float64, nc.Count)
	s.q = make([]float64, nc.Count)
	s.rho = 0
	for _, b := range s.p {
		s.rho += b * b
	}
	copy(s.r, s.p[nc.Start:])
}

func (s *cgState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) float64 {
	cfg := s.cfg
	switch sec {
	case 0: // q_local = A·p over a chunk of rows; accumulate p·q
		slots := cfg.cgSlots()
		work := 0.0
		if gRow == nc.Start {
			s.pq = 0
		}
		a := f64s(buf)
		for i := 0; i < nRows; i++ {
			gi := gRow + i
			li := gi - nc.Start
			sum, nnz := cgRowDot(a[i*2*slots:][:2*slots], s.p)
			s.q[li] = sum
			s.pq += s.p[gi] * sum
			work += float64(nnz)
		}
		return chunkWork(work, buf)
	case 1: // x += αp, r −= αq over local rows; accumulate r·r
		// alpha was fixed by section 0's reduction.
		local := 0.0
		for li := 0; li < nc.Count; li++ {
			gi := nc.Start + li
			s.x[li] += s.alpha * s.p[gi]
			s.r[li] -= s.alpha * s.q[li]
			local += s.r[li] * s.r[li]
		}
		s.pq = local // reuse as the value carried into the reduction
		return 4 * float64(nc.Count)
	case 2: // p = r + βp over local rows (gathered by the reduction)
		for li := 0; li < nc.Count; li++ {
			gi := nc.Start + li
			s.p[gi] = s.r[li] + s.beta*s.p[gi]
		}
		return 2 * float64(nc.Count)
	default:
		panic("cg: unexpected section")
	}
}

func (s *cgState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte { return nil }

func (s *cgState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {}

func (s *cgState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	switch sec {
	case 0, 1:
		s.red[0] = s.pq
		return s.red[:]
	case 2:
		// Gather: contribute my block of the new p, zeros elsewhere; the
		// sum reduction assembles the full vector on every rank.
		if s.gather == nil {
			s.gather = make([]float64, s.cfg.N)
		}
		copy(s.gather[nc.Start:nc.Start+nc.Count], s.p[nc.Start:])
		return s.gather
	default:
		panic("cg: unexpected reduction")
	}
}

func (s *cgState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	switch sec {
	case 0:
		pq := vals[0]
		if pq != 0 {
			s.alpha = s.rho / pq
		} else {
			s.alpha = 0
		}
	case 1:
		rhoNew := vals[0]
		if s.rho != 0 {
			s.beta = rhoNew / s.rho
		} else {
			s.beta = 0
		}
		s.rho = rhoNew
		s.Rho = rhoNew
	case 2:
		copy(s.p, vals)
	}
}

// CGReference runs the same CG sequentially (same block-summation order
// for the dot products, so results match the parallel run up to the
// reduction tree's floating-point reassociation). It returns the residual
// norms rho after each iteration.
func CGReference(cfg CGConfig, iters int) []float64 {
	n := cfg.N
	// Materialise the matrix rows once.
	rows := make([][]float64, n)
	bands := cfg.rowBands(0, n)
	for i := range rows {
		rows[i] = make([]float64, 2*cfg.cgSlots())
		cgRowInto(rows[i], cfg, bands, i)
	}
	p := make([]float64, n)
	r := make([]float64, n)
	x := make([]float64, n)
	q := make([]float64, n)
	rho := 0.0
	for i := 0; i < n; i++ {
		p[i] = cgB(cfg, i)
		r[i] = p[i]
		rho += r[i] * r[i]
	}
	var rhos []float64
	for it := 0; it < iters; it++ {
		pq := 0.0
		for i := 0; i < n; i++ {
			sum, _ := cgRowDot(rows[i], p)
			q[i] = sum
			pq += p[i] * sum
		}
		alpha := 0.0
		if pq != 0 {
			alpha = rho / pq
		}
		rhoNew := 0.0
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
			rhoNew += r[i] * r[i]
		}
		beta := 0.0
		if rho != 0 {
			beta = rhoNew / rho
		}
		rho = rhoNew
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
		rhos = append(rhos, rho)
	}
	return rhos
}
