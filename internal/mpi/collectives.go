package mpi

import (
	"encoding/binary"
	"math"

	"mheta/internal/vclock"
)

// Collectives are composed from point-to-point operations over binomial
// trees, the same construction LAM-MPI used for small communicators. The
// MHETA core reproduces the identical tree arithmetically (see
// core.reduceTree), so predicted and actual reduction costs agree up to
// noise — our stand-in for the dissertation's reduction equations, which
// the paper omits for space.

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

// Reduce combines each rank's vals element-wise with op onto the root
// rank over a binomial tree. Non-root ranks return nil; the root returns
// the combined vector. Every rank in the world must call Reduce with the
// same tag, root, op and length.
func (r *Rank) Reduce(root, tag int, op ReduceOp, vals []float64) []float64 {
	c := CallInfo{Kind: CallReduce, Peer: root, Bytes: 8 * len(vals), Tag: tag}
	start := r.begin(c)
	acc := append([]float64(nil), vals...)
	n := r.Size()
	// Work in root-relative rank space so any root works.
	rel := (r.rank - root + n) % n
	itag := reservedTagBase + tag
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := ((rel - mask) + root) % n
			r.Send(parent, itag, r.encode(acc))
			acc = nil
			break
		}
		if rel+mask < n {
			child := (rel + mask + root) % n
			got := r.Recv(child, itag)
			for i := range acc {
				acc[i] = op(acc[i], f64At(got, i))
			}
		}
	}
	r.end(c, start)
	return acc
}

// Bcast distributes vals from root to all ranks over a binomial tree and
// returns the received (or original, on root) vector.
func (r *Rank) Bcast(root, tag int, vals []float64) []float64 {
	c := CallInfo{Kind: CallBcast, Peer: root, Bytes: 8 * len(vals), Tag: tag}
	start := r.begin(c)
	n := r.Size()
	rel := (r.rank - root + n) % n
	itag := reservedTagBase + (1 << 20) + tag
	// Find the level at which this rank receives: the lowest set bit.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % n
			vals = decodeF64sInto(nil, r.Recv(parent, itag))
			break
		}
		mask <<= 1
	}
	// Forward to children below that level.
	for mask >>= 1; mask >= 1; mask >>= 1 {
		if rel+mask < n && rel&(mask-1) == 0 && rel&mask == 0 {
			child := (rel + mask + root) % n
			r.Send(child, itag, r.encode(vals))
		}
	}
	r.end(c, start)
	return vals
}

// Allreduce is Reduce to rank 0 followed by Bcast, the structure the MHETA
// reduction model mirrors.
func (r *Rank) Allreduce(tag int, op ReduceOp, vals []float64) []float64 {
	acc := r.Reduce(0, tag, op, vals)
	if r.rank != 0 {
		acc = make([]float64, len(vals))
	}
	return r.Bcast(0, tag, acc)
}

// Barrier synchronises all ranks: an empty Allreduce.
func (r *Rank) Barrier(tag int) {
	c := CallInfo{Kind: CallBarrier, Tag: tag}
	start := r.begin(c)
	r.Allreduce(tag+(1<<21), OpSum, nil)
	r.end(c, start)
}

// BcastBytes distributes raw bytes from root (used for data placement
// validation in tests; charges normal message costs).
func (r *Rank) BcastBytes(root, tag int, data []byte) []byte {
	// Reuse the float64 tree by padding to 8-byte multiples would distort
	// sizes; implement directly instead.
	c := CallInfo{Kind: CallBcast, Peer: root, Bytes: len(data), Tag: tag}
	start := r.begin(c)
	n := r.Size()
	rel := (r.rank - root + n) % n
	itag := reservedTagBase + (1 << 22) + tag
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % n
			data = r.Recv(parent, itag)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask >= 1; mask >>= 1 {
		if rel+mask < n && rel&(mask-1) == 0 && rel&mask == 0 {
			child := (rel + mask + root) % n
			r.Send(child, itag, data)
		}
	}
	r.end(c, start)
	return data
}

// WaitUntil advances the rank's clock to at least t, returning the waited
// span. Harness helper for aligning phase starts.
func (r *Rank) WaitUntil(t vclock.Time) vclock.Duration {
	return r.clk.WaitUntil(t)
}
