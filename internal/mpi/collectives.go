package mpi

import (
	"encoding/binary"
	"math"
)

// Collectives are composed from point-to-point operations over binomial
// trees, the same construction LAM-MPI used for small communicators; the
// state machines that run them are in event.go. The MHETA core
// reproduces the identical tree arithmetically (see core.reduceTree), so
// predicted and actual reduction costs agree up to noise — our stand-in
// for the dissertation's reduction equations, which the paper omits for
// space.

// ReduceOp combines two float64 values.
type ReduceOp func(a, b float64) float64

// OpSum adds; OpMax takes the maximum; OpMin the minimum.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 { return math.Max(a, b) }
	OpMin ReduceOp = func(a, b float64) float64 { return math.Min(a, b) }
)

// encode writes xs into the rank's scratch encoding buffer and returns
// it. The buffer is reused by the next encode, which is safe because
// Send copies its payload.
func (r *Rank) encode(xs []float64) []byte {
	if cap(r.enc) < 8*len(xs) {
		r.enc = make([]byte, 8*len(xs))
	}
	b := r.enc[:8*len(xs)]
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// f64At decodes the float64 at element index i of an encoded vector.
func f64At(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// decodeF64sInto decodes b into dst, reusing dst's storage when it is
// large enough.
func decodeF64sInto(dst []float64, b []byte) []float64 {
	n := len(b) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = f64At(b, i)
	}
	return dst
}
