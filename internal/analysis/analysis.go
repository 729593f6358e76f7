// Package analysis assembles the mheta-lint suite: the custom analyzers
// that machine-check this repo's determinism, clone-safety, dimensional,
// lock-discipline and goroutine-termination contracts (DESIGN.md
// §5.7/§5.9/§5.11/§5.14/§5.16). cmd/mheta-lint runs them standalone or
// as a `go vet -vettool`.
package analysis

import (
	"fmt"
	"sort"

	"mheta/internal/analysis/clonesafe"
	"mheta/internal/analysis/floatreduce"
	"mheta/internal/analysis/guarded"
	"mheta/internal/analysis/leakcheck"
	"mheta/internal/analysis/lintkit"
	"mheta/internal/analysis/maporder"
	"mheta/internal/analysis/nondeterminism"
	"mheta/internal/analysis/units"
)

// registry is the raw analyzer set. Order here is irrelevant; All()
// imposes the stable order and rejects malformed registrations.
var registry = []*lintkit.Analyzer{
	clonesafe.Analyzer,
	floatreduce.Analyzer,
	guarded.Analyzer,
	leakcheck.Analyzer,
	maporder.Analyzer,
	nondeterminism.Analyzer,
	units.Analyzer,
}

// All returns the full analyzer suite in stable sorted-by-name order.
// It panics on a malformed registry (nil analyzer, empty or duplicate
// name) — a registration bug, caught by the suite tests before any
// release of the tool.
func All() []*lintkit.Analyzer {
	s, err := suite(registry)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the registered analyzer names in the same stable order
// All uses, for -which listings.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// suite validates and orders an analyzer set: every analyzer must be
// non-nil with a non-empty, unique name. The result is sorted by name so
// listings and finding attribution are stable regardless of
// registration order.
func suite(as []*lintkit.Analyzer) ([]*lintkit.Analyzer, error) {
	out := make([]*lintkit.Analyzer, len(as))
	copy(out, as)
	for i, a := range out {
		if a == nil {
			return nil, fmt.Errorf("analysis: nil analyzer at registry index %d", i)
		}
		if a.Name == "" {
			return nil, fmt.Errorf("analysis: analyzer at registry index %d has an empty name", i)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i := 1; i < len(out); i++ {
		if out[i].Name == out[i-1].Name {
			return nil, fmt.Errorf("analysis: duplicate analyzer name %q", out[i].Name)
		}
	}
	return out, nil
}
