// Package program defines the structural intermediate representation MHETA
// consumes: parallel sections, tiles, stages, and the variables they touch
// (§3.1, Figure 1).
//
// The paper extracts this structure by manual source analysis and stores
// it "in a file read by MHETA"; its future work is to derive it by static
// analysis. Here each application constructs its Program directly, and the
// instrument package serialises it alongside the measured costs.
package program

import "fmt"

// CommPattern is the communication that ends a parallel section (§3.1: a
// parallel section is code in between either a nearest-neighbour or
// reduction communication pattern; pipelined sections communicate per
// tile).
type CommPattern int

const (
	// CommNone: section performs no communication (e.g. a purely local
	// stage run before a reduction section).
	CommNone CommPattern = iota
	// CommNearestNeighbor: each node exchanges boundaries with its
	// neighbours at the end of the section (Figure 1's EXCHANGE
	// BOUNDARIES).
	CommNearestNeighbor
	// CommPipeline: the section has many tiles; node p sends to p+1 after
	// each tile and p waits on p−1 before each tile (§4.2.2, Equation 4).
	CommPipeline
	// CommReduction: a global reduction over a scalar per node (Figure
	// 1's GLOBAL REDUCTION).
	CommReduction
)

// String implements fmt.Stringer.
func (c CommPattern) String() string {
	switch c {
	case CommNone:
		return "none"
	case CommNearestNeighbor:
		return "nearest-neighbor"
	case CommPipeline:
		return "pipeline"
	case CommReduction:
		return "reduction"
	default:
		return fmt.Sprintf("CommPattern(%d)", int(c))
	}
}

// Variable is a distributed (or replicated) array in the application.
type Variable struct {
	Name string
	// ElemBytes is the size of one element (a full row for 2-D arrays
	// distributed by rows, matching the paper's 1-D GEN_BLOCK model).
	ElemBytes int64
	// Elems is the global element (row) count.
	Elems int
	// Distributed is false for replicated read-only data (Figure 1's
	// array A, whose "necessary rows can be replicated").
	Distributed bool
	// ReadOnly variables incur no write-back when processed out of core
	// ("For the Conjugate Gradient and Lanzcos applications, the array is
	// read-only, and no writes are performed").
	ReadOnly bool
	// Sparse marks variables with irregular per-row cost (CG). MHETA
	// cannot see this (§5.4 limitation 3); the emulator can.
	Sparse bool
}

// TotalBytes returns the variable's global footprint.
func (v Variable) TotalBytes() int64 { return v.ElemBytes * int64(v.Elems) }

// VarRef names a variable used by a stage together with the access mode.
type VarRef struct {
	Name  string
	Write bool
}

// Stage is the unit within which only computation and I/O occur (§3.1).
type Stage struct {
	Name string
	// WorkPerElem is the computation per local element in abstract work
	// units (one unit costs 1/CPUPower seconds × the app's WorkUnitCost).
	WorkPerElem float64
	// Uses lists the distributed variables the stage streams through
	// memory; out-of-core ones are read (and written back unless
	// read-only) in ICLA pieces.
	Uses []VarRef
	// Prefetch marks the stage's ICLA loop as unrolled for prefetching
	// (Figure 6).
	Prefetch bool
}

// Section is a parallel section: a set of tiles each running the same
// stages, ended by a communication pattern.
type Section struct {
	Name string
	// Tiles is the number of tiles; >1 only for pipelined sections.
	Tiles int
	// Stages run in order within each tile.
	Stages []Stage
	// Comm is the communication pattern ending the section.
	Comm CommPattern
	// MsgBytesPerNeighbor is the boundary-message payload for
	// nearest-neighbour and pipelined communication; reductions use
	// ReduceBytes.
	MsgBytesPerNeighbor int64
	// ReduceBytes is the payload of each reduction message.
	ReduceBytes int64
}

// Program is a whole iterative application.
type Program struct {
	Name       string
	Variables  []Variable
	Sections   []Section
	Iterations int
	// WorkUnitCost is the seconds one abstract work unit takes on a node
	// with CPUPower 1. It calibrates the app's compute/IO balance.
	WorkUnitCost float64
	// IterWeights optionally makes iterations nonuniform (§3.1: "MHETA
	// can support the case where iterations take a nonuniform amount of
	// time"): iteration i's computation is scaled by IterWeights[i]
	// relative to the instrumented iteration (index 0). Nil means
	// uniform. I/O volume is unaffected — the dataset still streams in
	// full every iteration.
	IterWeights []float64
}

// IterWeight returns iteration i's computation weight (1 when uniform).
func (p *Program) IterWeight(i int) float64 {
	if p.IterWeights == nil {
		return 1
	}
	return p.IterWeights[i]
}

// Var returns the named variable, or an error naming the program for
// context.
func (p *Program) Var(name string) (Variable, error) {
	v, err := p.VarRef(name)
	if err != nil {
		return Variable{}, err
	}
	return *v, nil
}

// VarRef is Var without the copy: a pointer into p.Variables, which the
// caller must treat as read-only.
func (p *Program) VarRef(name string) (*Variable, error) {
	for i := range p.Variables {
		if p.Variables[i].Name == name {
			return &p.Variables[i], nil
		}
	}
	return nil, fmt.Errorf("program %q: unknown variable %q", p.Name, name)
}

// MustVar is Var for statically-known names; it panics on a miss.
func (p *Program) MustVar(name string) Variable {
	v, err := p.Var(name)
	if err != nil {
		panic(err)
	}
	return v
}

// DistributedVars returns the distributed variables in declaration order.
func (p *Program) DistributedVars() []Variable {
	var out []Variable
	for _, v := range p.Variables {
		if v.Distributed {
			out = append(out, v)
		}
	}
	return out
}

// GlobalElems returns the element (row) count that a distribution must
// partition: the paper distributes one dimension of the primary dataset,
// and all distributed variables of an application share it.
func (p *Program) GlobalElems() int {
	for _, v := range p.Variables {
		if v.Distributed {
			return v.Elems
		}
	}
	return 0
}

// Validate checks structural invariants: positive iteration and tile
// counts, stages referencing declared variables, pipelined sections having
// multiple tiles, and consistent element counts across distributed
// variables.
func (p *Program) Validate() error {
	if p.Iterations <= 0 {
		return fmt.Errorf("program %q: Iterations %d <= 0", p.Name, p.Iterations)
	}
	if p.WorkUnitCost <= 0 {
		return fmt.Errorf("program %q: WorkUnitCost %v <= 0", p.Name, p.WorkUnitCost)
	}
	if p.IterWeights != nil {
		if len(p.IterWeights) != p.Iterations {
			return fmt.Errorf("program %q: %d IterWeights for %d iterations", p.Name, len(p.IterWeights), p.Iterations)
		}
		for i, w := range p.IterWeights {
			if w <= 0 {
				return fmt.Errorf("program %q: IterWeights[%d] = %v <= 0", p.Name, i, w)
			}
		}
	}
	elems := -1
	for _, v := range p.Variables {
		if v.Elems <= 0 || v.ElemBytes <= 0 {
			return fmt.Errorf("program %q: variable %q has non-positive shape", p.Name, v.Name)
		}
		if v.Distributed {
			if elems == -1 {
				elems = v.Elems
			} else if v.Elems != elems {
				return fmt.Errorf("program %q: distributed variables disagree on element count (%d vs %d)", p.Name, elems, v.Elems)
			}
		}
	}
	for si, s := range p.Sections {
		if s.Tiles <= 0 {
			return fmt.Errorf("program %q section %d: Tiles %d <= 0", p.Name, si, s.Tiles)
		}
		if s.Comm == CommPipeline && s.Tiles < 2 {
			return fmt.Errorf("program %q section %q: pipelined section needs >1 tile", p.Name, s.Name)
		}
		if s.Comm != CommPipeline && s.Tiles != 1 {
			return fmt.Errorf("program %q section %q: non-pipelined section must have 1 tile", p.Name, s.Name)
		}
		for _, st := range s.Stages {
			if st.WorkPerElem < 0 {
				return fmt.Errorf("program %q stage %q: negative work", p.Name, st.Name)
			}
			for _, u := range st.Uses {
				if _, err := p.Var(u.Name); err != nil {
					return fmt.Errorf("program %q stage %q: %v", p.Name, st.Name, err)
				}
			}
		}
	}
	return nil
}
