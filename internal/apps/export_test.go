package apps

import "mheta/internal/exec"

// Test-only accessors for the external apps_test package.

// F64sForTest exposes the float64 view the kernels use on extents.
func F64sForTest(b []byte) []float64 { return f64s(b) }

// CGNNZForTest exposes the true nonzero count of row i.
func CGNNZForTest(cfg CGConfig, i int) int { return cgNNZ(cfg, i) }

// CGRowEntriesForTest exposes row i's (column → value) map.
func CGRowEntriesForTest(cfg CGConfig, i int) map[int]float64 {
	row := make([]float64, 2*cfg.cgSlots())
	cgRowInto(row, cfg, i)
	out := make(map[int]float64)
	for k := 0; k < len(row); k += 2 {
		if row[k] >= 0 {
			out[int(row[k])] = row[k+1]
		}
	}
	return out
}

// LanczosAlphasForTest and LanczosBetasForTest read the recorded
// tridiagonal coefficients out of a lanczos state.
func LanczosAlphasForTest(s exec.State) []float64 { return s.(*lanczosState).Alphas }
func LanczosBetasForTest(s exec.State) []float64  { return s.(*lanczosState).Betas }

// JacobiGlobalResidualForTest reads the reduced residual out of a jacobi
// state.
func JacobiGlobalResidualForTest(s exec.State) float64 { return s.(*jacobiState).GlobalResidual }
