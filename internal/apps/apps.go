// Package apps implements the paper's four benchmark applications —
// Jacobi iteration (with and without prefetching), the RNA-pseudoknot
// pipelining benchmark, NAS Conjugate Gradient, and the full-scale
// Lanczos solver — plus Multigrid, the extension §6 names as in-progress
// future work.
//
// Each application supplies (a) a program.Program describing its
// structure in MHETA's vocabulary, and (b) an exec.State with real numeric
// kernels: the emulated runs compute genuine values (relaxations,
// sparse/dense matrix-vector products, dynamic-programming tables), which
// the test suite checks against sequential references. Virtual time and
// numerics are decoupled: kernels run on the host CPU; their cost is
// charged to the rank's virtual clock as work units.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"mheta/internal/exec"
)

// f64s views b as float64s in the host's native representation, without
// copying: every Init lays its extent out through it and every Process
// kernel indexes its chunk through it. It panics when len(b) is not a
// whole number of float64s or b does not start on an 8-byte boundary.
func f64s(b []byte) []float64 {
	p := unsafe.Pointer(unsafe.SliceData(b))
	if len(b)%8 != 0 || uintptr(p)%8 != 0 {
		panic(fmt.Sprintf("apps: float64 view of %d bytes at %p: ragged or misaligned", len(b), p))
	}
	return unsafe.Slice((*float64)(p), len(b)/8)
}

// f64sToBytesInto encodes xs into dst as a little-endian message
// payload, reusing dst's storage when it is large enough.
func f64sToBytesInto(dst []byte, xs []float64) []byte {
	if cap(dst) < 8*len(xs) {
		dst = make([]byte, 8*len(xs))
	}
	dst = dst[:8*len(xs)]
	for i, x := range xs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
	return dst
}

// bytesToF64sInto decodes a little-endian message payload b into dst,
// reusing dst's storage when it is large enough.
func bytesToF64sInto(dst []float64, b []byte) []float64 {
	if cap(dst) < len(b)/8 {
		dst = make([]float64, len(b)/8)
	}
	dst = dst[:len(b)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// cacheFactor is the memory-hierarchy effect MHETA does not model (§5.4
// limitation 1): the per-element compute cost depends mildly on the
// working-set (chunk) size, because small ICLAs reuse cache lines that
// large ones evict. The instrumented iteration measures a rate blended at
// the base distribution's chunk sizes; when a candidate distribution
// changes the ICLA, the actual rate shifts and MHETA cannot see it. The
// effect is deliberately small — out-of-core datasets "easily swamp the
// cache", so "the likelihood of this error occurring is small".
func cacheFactor(chunkBytes int) float64 {
	if chunkBytes <= 0 {
		return 1
	}
	// ±3% across three decades of chunk size, centred on 256 KiB.
	f := 1 + 0.015*math.Log2(float64(chunkBytes)/(256*1024))/10
	if f < 0.97 {
		f = 0.97
	}
	if f > 1.03 {
		f = 1.03
	}
	return f
}

// chunkWork scales nominal work units by the cache factor for the chunk
// the kernel just touched.
func chunkWork(units float64, buf []byte) float64 {
	return units * cacheFactor(len(buf))
}

// hash64 is a tiny deterministic value generator for synthetic datasets:
// the same (seed, index) always yields the same value in [0, 1), on every
// rank, so each rank can materialise its block of the global dataset
// without communication.
func hash64(seed uint64, i int) float64 { return mix64(hashKey(seed, i)) }

// hashStep is the difference between the keys of consecutive indices:
// hashKey(seed, i+1) == hashKey(seed, i) + hashStep in uint64
// arithmetic, so a loop over indices can step the key instead of
// multiplying.
const hashStep = 0x9e3779b97f4a7c15

// hashKey is hash64's key for index i.
func hashKey(seed uint64, i int) uint64 { return seed + uint64(i)*hashStep }

// mix64 turns a key into hash64's value.
func mix64(z uint64) float64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// All returns the paper's benchmark set in evaluation order: Jacobi,
// CG, Lanczos, RNA (§5: "three scientific benchmarks ... In addition, we
// experimented with one full-scale application"). Sizes are the default
// experiment scale; see each constructor for the knobs.
func All() []*exec.App {
	return []*exec.App{
		NewJacobi(DefaultJacobiConfig()),
		NewCG(DefaultCGConfig()),
		NewLanczos(DefaultLanczosConfig()),
		NewRNA(DefaultRNAConfig()),
	}
}
