// Package suite assembles catnap's full analyzer set in one place, so
// cmd/catnap-lint and the repo-wide lint-clean test run exactly the same
// checks.
package suite

import (
	"fmt"
	"sort"
	"strings"

	"github.com/catnap-noc/catnap/internal/analysis"
	"github.com/catnap-noc/catnap/internal/analysis/contractflow"
	"github.com/catnap-noc/catnap/internal/analysis/hotpathalloc"
	"github.com/catnap-noc/catnap/internal/analysis/missingdoc"
	"github.com/catnap-noc/catnap/internal/analysis/nodeterminism"
	"github.com/catnap-noc/catnap/internal/analysis/resetcoverage"
)

// All returns every analyzer in the suite, in reporting order. The
// per-function contract checkers come first, contractflow (the
// call-graph propagation layer that feeds them their annotations) after
// them, and the repo-hygiene checks last.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterminism.Analyzer,
		hotpathalloc.Analyzer,
		contractflow.Analyzer,
		resetcoverage.Analyzer,
		missingdoc.Analyzer,
	}
}

// Names returns every analyzer name in stable sorted order (the order
// catnap-lint lists them in error messages).
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// ByName returns the named analyzers out of All. Unknown and duplicate
// names are errors: running the same analyzer twice would double every
// diagnostic, so a repeated -checks entry is rejected rather than
// silently honoured.
func ByName(names []string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	seen := make(map[string]bool, len(names))
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(Names(), ", "))
		}
		if seen[n] {
			return nil, fmt.Errorf("duplicate analyzer %q", n)
		}
		seen[n] = true
		out = append(out, a)
	}
	return out, nil
}
