// Package clonesafe_good holds Clone methods that satisfy the clone
// contract through each accepted pattern.
package clonesafe_good

// Deep rebuilds every mutable field: append-copy, make-then-fill, and a
// nested Clone call.
type Deep struct {
	name string
	vals []float64
	meta map[string]int
	next *Deep
}

func (d *Deep) Clone() *Deep {
	c := &Deep{
		name: d.name,
		vals: append([]float64(nil), d.vals...),
		meta: make(map[string]int, len(d.meta)),
	}
	for k, v := range d.meta {
		c.meta[k] = v
	}
	if d.next != nil {
		c.next = d.next.Clone()
	}
	return c
}

// Marked shares one field deliberately, documented at the declaration.
type Marked struct {
	cfg []int //lint:shared frozen after construction; clones only read it
	buf []byte
}

func (m *Marked) Clone() *Marked {
	return &Marked{
		cfg: m.cfg,
		buf: append([]byte(nil), m.buf...),
	}
}

// ValueOnly has no mutable fields, so the wholesale copy is exactly
// right.
type ValueOnly struct {
	a int
	b string
	c [4]float64
}

func (v ValueOnly) Clone() ValueOnly { return v }

// CopyInto rebuilds with make plus the copy builtin.
type CopyInto struct {
	data []float64
}

func (c *CopyInto) Clone() *CopyInto {
	out := &CopyInto{data: make([]float64, len(c.data))}
	copy(out.data, c.data)
	return out
}

// Repaired copies the whole struct, then re-points the one mutable
// field at fresh storage — the sanctioned fixup idiom.
type Repaired struct {
	gen     int
	scratch []int
}

func (r *Repaired) Clone() *Repaired {
	c := *r
	c.scratch = append([]int(nil), r.scratch...)
	return &c
}

// Suppressed documents a method-level exception.
type Suppressed struct {
	raw []int
}

//lint:ignore clonesafe raw is written once before the first clone exists, then never again
func (s *Suppressed) Clone() *Suppressed {
	return &Suppressed{raw: s.raw}
}

// RefClone is the slice-type deep copy dist.Distribution uses.
type RefClone []int

func (r RefClone) Clone() RefClone {
	return append(RefClone(nil), r...)
}
