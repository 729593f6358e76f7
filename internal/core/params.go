// Package core implements MHETA itself: the system of parameterized
// equations of §4.2 that, given the measured costs of one instrumented
// iteration plus micro-benchmarked communication constants, predicts the
// per-iteration execution time of the application under any candidate
// GEN_BLOCK data distribution.
//
// The model is assembled from the program's structure exactly as the paper
// describes: per stage, computation scaled by assigned work (§4.2.1) plus
// synchronous or prefetching I/O (Equations 1 and 2); per parallel
// section, communication composed of send overhead, wait time, and receive
// overhead (Equations 3–5 for nearest-neighbour and pipelined patterns,
// and a binomial-tree model for reductions, standing in for the
// dissertation's equations). Evaluating a distribution is pure arithmetic
// — no emulation — which is what makes MHETA usable inside a search loop
// (the paper reports ~5.4 ms per distribution; see BenchmarkModelEvaluate).
package core

import (
	"fmt"

	"mheta/internal/program"
)

// NetParams are the micro-benchmarked communication constants (§4.1):
// fixed send/receive overheads with per-byte growth, and the wire's
// latency and per-byte time. All values are seconds.
type NetParams struct {
	SendFixed   float64 `json:"send_fixed"`    //mheta:units seconds
	SendPerByte float64 `json:"send_per_byte"` //mheta:units s/byte
	RecvFixed   float64 `json:"recv_fixed"`    //mheta:units seconds
	RecvPerByte float64 `json:"recv_per_byte"` //mheta:units s/byte
	WireFixed   float64 `json:"wire_fixed"`    //mheta:units seconds
	WirePerByte float64 `json:"wire_per_byte"` //mheta:units s/byte
}

// SendCost returns os(m) for a message of the given size.
//
//mheta:units bytes bytes
//mheta:units seconds return
func (n NetParams) SendCost(bytes int64) float64 {
	return n.SendFixed + float64(bytes)*n.SendPerByte
}

// RecvCost returns or(m).
//
//mheta:units bytes bytes
//mheta:units seconds return
func (n NetParams) RecvCost(bytes int64) float64 {
	return n.RecvFixed + float64(bytes)*n.RecvPerByte
}

// Transfer returns the in-flight time for a message of the given size.
//
//mheta:units bytes bytes
//mheta:units seconds return
func (n NetParams) Transfer(bytes int64) float64 {
	return n.WireFixed + float64(bytes)*n.WirePerByte
}

// DiskCal are the node-specific disk constants from the disk
// micro-benchmark: "The seek overheads for reading and writing to local
// disk are the same regardless of the variable involved, so they are
// measured and output as node-specific data" (§4.1.1). ReadSeek and
// WriteSeek are the paper's Or and Ow; IssueCost is To, the CPU overhead
// of issuing an asynchronous prefetch.
type DiskCal struct {
	ReadSeek  float64 `json:"read_seek"`  //mheta:units seconds
	WriteSeek float64 `json:"write_seek"` //mheta:units seconds
	IssueCost float64 `json:"issue_cost"` //mheta:units seconds
}

// StageParams hold the instrumented measurements for one stage,
// per node.
type StageParams struct {
	Name string `json:"name"`
	// ComputePerElem[p] is node p's measured computation seconds per
	// local element: the stage span minus stage I/O, divided by the
	// instrumented run's work assignment W(p) (§4.1.1). Scaling it by the
	// candidate distribution's W'(p) realises Tc' = Tc·W'/W.
	ComputePerElem []float64 `json:"compute_per_elem"` //mheta:units s/elem
	// StreamVar names the out-of-core variable the stage streams ("" if
	// the stage touches only in-core data).
	StreamVar string `json:"stream_var,omitempty"`
	// ElemBytes is the streamed variable's per-element footprint.
	ElemBytes int64 `json:"elem_bytes,omitempty"` //mheta:units bytes
	// ReadOnly is true when processing incurs no write-back (CG, Lanczos).
	ReadOnly bool `json:"read_only,omitempty"`
	// ReadPerByte[p] / WritePerByte[p] are the variable-specific latencies
	// lr(v), lw(v) extracted for node p from the instrumented (forced)
	// I/O, already net of seek overheads.
	ReadPerByte  []float64 `json:"read_per_byte,omitempty"`  //mheta:units s/byte
	WritePerByte []float64 `json:"write_per_byte,omitempty"` //mheta:units s/byte
	// Prefetch marks the stage's ICLA loop as unrolled for prefetching
	// (Figure 6), switching the I/O term from Equation 1 to Equation 2.
	Prefetch bool `json:"prefetch,omitempty"`
	// OverlapPerElem[p] is Tov per local element: the computation node p
	// overlaps with each in-flight prefetch, measured under the Figure 5
	// transform.
	OverlapPerElem []float64 `json:"overlap_per_elem,omitempty"` //mheta:units s/elem
}

// SectionParams describe one parallel section.
type SectionParams struct {
	Name  string              `json:"name"`
	Tiles int                 `json:"tiles"` //mheta:units blocks
	Comm  program.CommPattern `json:"comm"`
	// MsgBytes is the boundary-message payload per neighbour (nearest
	// neighbour) or per tile (pipeline).
	MsgBytes int64 `json:"msg_bytes,omitempty"` //mheta:units bytes
	// ReduceBytes is the reduction payload.
	ReduceBytes int64         `json:"reduce_bytes,omitempty"` //mheta:units bytes
	Stages      []StageParams `json:"stages"`
}

// DistVar describes one distributed variable for the in-core heuristic.
type DistVar struct {
	Name      string `json:"name"`
	ElemBytes int64  `json:"elem_bytes"` //mheta:units bytes
	ReadOnly  bool   `json:"read_only,omitempty"`
}

// Params is the complete parameter set MHETA needs: everything the
// instrumented iteration and the micro-benchmarks produce, stored in "an
// internal MHETA file" (§4.1.1; see the paramfile package for the format).
type Params struct {
	Program    string `json:"program"`
	Nodes      int    `json:"nodes"`
	Iterations int    `json:"iterations"` //mheta:units ratio
	// MemoryBytes[p] is node p's ICLA budget — part of the known
	// architecture description, like the paper's emulated memory caps.
	MemoryBytes []int64   `json:"memory_bytes"` //mheta:units bytes
	Disk        []DiskCal `json:"disk"`
	Net         NetParams `json:"net"`
	// BaseDist is the distribution the instrumented iteration ran under
	// (the paper instruments under Blk); ComputePerElem values were
	// normalised by it.
	BaseDist []int           `json:"base_dist"` //mheta:units elems
	DistVars []DistVar       `json:"dist_vars"`
	Sections []SectionParams `json:"sections"`
	// IterWeights makes iterations nonuniform (§3.1): iteration i's
	// computation is IterWeights[i]/IterWeights[0] times the instrumented
	// iteration's (index 0). Nil means uniform.
	IterWeights []float64 `json:"iter_weights,omitempty"` //mheta:units ratio
	// SharedDisk marks the §3.2 global-disk extension: all nodes stream
	// through one disk, modelled as fair bandwidth sharing — every I/O
	// term scales by the number of concurrently streaming nodes. The
	// stored per-byte latencies are contention-free (the extraction
	// divides the instrumented run's factor out).
	SharedDisk bool `json:"shared_disk,omitempty"`
}

// Plausibility bounds a parameter set must meet. Holding every time
// constant to a finite magnitude and every iteration weight to a
// bounded range keeps the model's sums and products finite; maxTiles
// bounds the per-tile state the pipeline recurrence allocates, which a
// parameter file of a few bytes could otherwise make arbitrarily large.
const (
	maxTimeConstant = 1e6 //mheta:units seconds
	maxIterWeight   = 1e6 //mheta:units ratio
	maxTiles        = 1 << 16
)

// checkTimes rejects a time constant (seconds, or seconds per element
// or byte) that is not finite or exceeds maxTimeConstant in magnitude.
func checkTimes(what string, xs ...float64) error {
	for i, x := range xs {
		if !(x >= -maxTimeConstant && x <= maxTimeConstant) {
			return fmt.Errorf("core: %s[%d] = %v is not within ±%g", what, i, x, maxTimeConstant)
		}
	}
	return nil
}

// Validate checks internal consistency: every per-node slice must have
// exactly Nodes entries, every section must be structurally sound, and
// every value must lie within the plausibility bounds above — so any
// Params that validates builds a model whose predictions are finite.
func (p *Params) Validate() error {
	if p.Nodes <= 0 {
		return fmt.Errorf("core: Nodes %d <= 0", p.Nodes)
	}
	if p.Iterations <= 0 {
		return fmt.Errorf("core: Iterations %d <= 0", p.Iterations)
	}
	n := p.Net
	if err := checkTimes("Net", n.SendFixed, n.SendPerByte, n.RecvFixed, n.RecvPerByte, n.WireFixed, n.WirePerByte); err != nil {
		return err
	}
	for i, d := range p.Disk {
		if err := checkTimes(fmt.Sprintf("Disk[%d]", i), d.ReadSeek, d.WriteSeek, d.IssueCost); err != nil {
			return err
		}
	}
	checkLen := func(what string, n int) error {
		if n != p.Nodes {
			return fmt.Errorf("core: %s has %d entries, want %d", what, n, p.Nodes)
		}
		return nil
	}
	if err := checkLen("MemoryBytes", len(p.MemoryBytes)); err != nil {
		return err
	}
	if err := checkLen("Disk", len(p.Disk)); err != nil {
		return err
	}
	if err := checkLen("BaseDist", len(p.BaseDist)); err != nil {
		return err
	}
	if len(p.Sections) == 0 {
		return fmt.Errorf("core: no sections")
	}
	if p.IterWeights != nil {
		if len(p.IterWeights) != p.Iterations {
			return fmt.Errorf("core: %d IterWeights for %d iterations", len(p.IterWeights), p.Iterations)
		}
		for i, w := range p.IterWeights {
			if !(w >= 1/maxIterWeight && w <= maxIterWeight) {
				return fmt.Errorf("core: IterWeights[%d] = %v is outside [%g, %g]", i, w, 1/maxIterWeight, maxIterWeight)
			}
		}
	}
	vars := make(map[string]bool, len(p.DistVars))
	for _, v := range p.DistVars {
		vars[v.Name] = true
	}
	for si, s := range p.Sections {
		if s.Tiles <= 0 || s.Tiles > maxTiles {
			return fmt.Errorf("core: section %d (%s): Tiles %d is outside [1, %d]", si, s.Name, s.Tiles, maxTiles)
		}
		switch s.Comm {
		case program.CommNone, program.CommNearestNeighbor, program.CommReduction:
		case program.CommPipeline:
			if s.Tiles < 2 {
				return fmt.Errorf("core: section %d (%s): pipeline with %d tile(s)", si, s.Name, s.Tiles)
			}
		default:
			return fmt.Errorf("core: section %d (%s): unknown comm pattern %v", si, s.Name, s.Comm)
		}
		for sti, st := range s.Stages {
			stage := fmt.Sprintf("section %d stage %d", si, sti)
			if err := checkLen(stage+" ComputePerElem", len(st.ComputePerElem)); err != nil {
				return err
			}
			if err := checkTimes(stage+" ComputePerElem", st.ComputePerElem...); err != nil {
				return err
			}
			if st.StreamVar != "" {
				if !vars[st.StreamVar] {
					return fmt.Errorf("core: %s streams unknown variable %q", stage, st.StreamVar)
				}
				if err := checkLen(stage+" ReadPerByte", len(st.ReadPerByte)); err != nil {
					return err
				}
				if !st.ReadOnly {
					if err := checkLen(stage+" WritePerByte", len(st.WritePerByte)); err != nil {
						return err
					}
				}
				if st.ElemBytes <= 0 {
					return fmt.Errorf("core: %s: ElemBytes %d <= 0", stage, st.ElemBytes)
				}
			}
			if st.Prefetch {
				if err := checkLen(stage+" OverlapPerElem", len(st.OverlapPerElem)); err != nil {
					return err
				}
			}
			if err := checkTimes(stage+" ReadPerByte", st.ReadPerByte...); err != nil {
				return err
			}
			if err := checkTimes(stage+" WritePerByte", st.WritePerByte...); err != nil {
				return err
			}
			if err := checkTimes(stage+" OverlapPerElem", st.OverlapPerElem...); err != nil {
				return err
			}
		}
	}
	return nil
}
