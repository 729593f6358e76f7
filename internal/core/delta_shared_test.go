package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"mheta/internal/program"
)

// eightRankParams builds an eight-rank parameter set with heterogeneous
// compute rates and memory budgets, so the wider widths stream through
// the synchronous-I/O stage every section runs. The comm patterns pick
// the shape: [nearest-neighbour, reduction] is the fused jacobi8 shape,
// a pipeline section exercises the per-tile recurrence.
func eightRankParams(comms ...program.CommPattern) Params {
	const n = 8
	p := Params{
		Program: "eight", Nodes: n, Iterations: 4,
		Net: NetParams{
			SendFixed: 1e-4, SendPerByte: 1e-8,
			RecvFixed: 2e-4, RecvPerByte: 1e-8,
			WireFixed: 5e-4, WirePerByte: 1e-7,
		},
		DistVars: []DistVar{{Name: "V", ElemBytes: 100}},
	}
	stage := StageParams{Name: "st", StreamVar: "V", ElemBytes: 100}
	for i := 0; i < n; i++ {
		p.MemoryBytes = append(p.MemoryBytes, int64(2000+500*i)) // 20..55 elems in core
		p.Disk = append(p.Disk, DiskCal{ReadSeek: 0.01, WriteSeek: 0.02, IssueCost: 0.001})
		p.BaseDist = append(p.BaseDist, 40)
		stage.ComputePerElem = append(stage.ComputePerElem, 0.01*float64(1+i%3))
		stage.ReadPerByte = append(stage.ReadPerByte, 1e-5*float64(1+i%2))
		stage.WritePerByte = append(stage.WritePerByte, 2e-5)
	}
	for si, c := range comms {
		s := SectionParams{Name: fmt.Sprintf("s%d", si), Tiles: 1, Comm: c, Stages: []StageParams{stage}}
		switch c {
		case program.CommNearestNeighbor:
			s.MsgBytes = 512
		case program.CommPipeline:
			s.Tiles, s.MsgBytes = 4, 128
		case program.CommReduction:
			s.ReduceBytes = 64
		}
		p.Sections = append(p.Sections, s)
	}
	return p
}

// sharedTableVariant is one parameter set the shared-table tests run.
type sharedTableVariant struct {
	name string
	p    Params
}

// sharedTableVariants are the two-node mixed set (every comm pattern, a
// prefetching stage), the fused eight-rank shape and a pipelined
// eight-rank one.
func sharedTableVariants() []sharedTableVariant {
	return []sharedTableVariant{
		{"mixed", deltaParams()},
		{"fused8", eightRankParams(program.CommNearestNeighbor, program.CommReduction)},
		{"pipelined", eightRankParams(program.CommPipeline, program.CommReduction)},
	}
}

// candidateStream returns a seeded stream of candidates over total
// elements in the shapes searches emit: GBS legs (one anchor pair,
// sliding), mutations (a random move between two ranks, sometimes
// emptying one), annealing steps (one element across a boundary) and
// fresh random splits.
func candidateStream(seed uint64, n, total, count int) [][]int {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	cur := make([]int, n)
	for i := range cur {
		cur[i] = total / n
	}
	cur[0] += total - n*(total/n)
	var out [][]int
	emit := func() { out = append(out, append([]int(nil), cur...)) }
	for len(out) < count {
		switch rng.IntN(4) {
		case 0: // GBS leg: slide elements from anchor i to anchor j
			i, j := rng.IntN(n), rng.IntN(n)
			for k := 0; k < 6 && cur[i] > 0 && i != j; k++ {
				cur[i]--
				cur[j]++
				emit()
			}
		case 1: // mutation
			i, j := rng.IntN(n), rng.IntN(n)
			k := rng.IntN(cur[i] + 1)
			cur[i] -= k
			cur[j] += k
			emit()
		case 2: // annealing: one element across a boundary
			i := rng.IntN(n - 1)
			if cur[i] > 0 {
				cur[i]--
				cur[i+1]++
			}
			emit()
		default: // random split
			left := total
			for i := 0; i < n-1; i++ {
				cur[i] = rng.IntN(left + 1)
				left -= cur[i]
			}
			cur[n-1] = left
			emit()
		}
	}
	return out[:count]
}

// TestDeltaSharedTableConcurrent runs K clones of one master at once over
// overlapping candidate streams, so they race to publish pages and fill
// the same (node, width) entries. Under -race this checks the table's
// publication protocol; the values must be bit-identical to a fresh
// model's full evaluation.
func TestDeltaSharedTableConcurrent(t *testing.T) {
	const goroutines, perG = 4, 300
	for _, v := range sharedTableVariants() {
		p := v.p
		t.Run(v.name, func(t *testing.T) {
			master := MustModel(p)
			total := 0
			for _, w := range p.BaseDist {
				total += w
			}
			got := make([][]float64, goroutines)
			usedDelta := make([]int, goroutines)
			streams := make([][][]int, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				// Pairs of goroutines replay the same stream in opposite
				// directions, so they meet on the same widths mid-way.
				streams[g] = candidateStream(uint64(g/2), p.Nodes, total, perG)
				if g%2 == 1 {
					s := streams[g]
					for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
						s[i], s[j] = s[j], s[i]
					}
				}
				got[g] = make([]float64, perG)
				de := master.Clone().Delta()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i, d := range streams[g] {
						var used bool
						got[g][i], used = de.Evaluate(d)
						if used {
							usedDelta[g]++
						}
					}
				}(g)
			}
			wg.Wait()
			ref := MustModel(p)
			for g := range got {
				if usedDelta[g] == 0 {
					t.Fatalf("goroutine %d never took the delta path", g)
				}
				for i, d := range streams[g] {
					if want := ref.PredictTotal(d); math.Float64bits(got[g][i]) != math.Float64bits(want) {
						t.Fatalf("goroutine %d candidate %d %v: delta %v != full %v", g, i, d, got[g][i], want)
					}
				}
			}
		})
	}
}

// FuzzDeltaSharedTable interleaves fuzzed width vectors — zero, negative
// and beyond-the-problem-size widths included — across two clones that
// share one busy-term table; every score must match a fresh model's full
// evaluation bit for bit.
func FuzzDeltaSharedTable(f *testing.F) {
	f.Add([]byte{0, 30, 18, 1, 30, 18, 0, 29, 19})
	f.Add([]byte{1, 0, 40, 40, 40, 40, 40, 40, 40, 40, 1, 41, 39, 40, 40, 40, 40, 40, 40})
	f.Add([]byte{2, 0, 0, 255, 0, 128, 7, 90, 12, 200, 1, 3, 3, 3, 3, 3, 3, 3, 3})
	variants := sharedTableVariants()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := variants[int(data[0])%len(variants)].p
		data = data[1:]
		master := MustModel(p)
		clones := [2]*DeltaEvaluator{master.Clone().Delta(), master.Clone().Delta()}
		ref := MustModel(p)
		n := p.Nodes
		// Each step is a selector byte (which clone) and n widths; a
		// signed byte times 3 spans negative, zero and widths beyond
		// every variant's problem size.
		for len(data) > n {
			de := clones[data[0]&1]
			d := make([]int, n)
			for i := range d {
				d[i] = 3 * int(int8(data[1+i]))
			}
			data = data[1+n:]
			got, _ := de.Evaluate(d)
			if want := ref.PredictTotal(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%v: delta %v != full %v", d, got, want)
			}
		}
	})
}
