package bench

import (
	"fmt"
	"strings"
)

// cellOut is one cell's contribution to its experiment: consecutive table
// rows, plus the kernel steps the cell executed (perf accounting surfaced in
// the JSON report; 0 for cells that run no kernel, like E4's CHT
// reduction).
type cellOut struct {
	rows  [][]string
	steps int64
}

// cell is one independent unit of an experiment — typically one seeded
// kernel run. A cell builds everything it touches (failure pattern,
// detector, network model, kernel, recorder) from the experiment Options,
// shares no mutable state with its siblings, and derives all randomness from
// the experiment seed. That is the contract that lets the Runner execute
// cells on any worker in any order while the assembled table stays
// byte-identical to the serial path.
type cell func() cellOut

// spec is an experiment decomposed for the sweep engine: the table shell
// (ID, title, claim, header, notes — everything but Rows) plus the ordered
// cells whose outputs concatenate into Rows.
type spec struct {
	shell Table
	cells []cell
}

// run executes the cells in order on the calling goroutine and assembles the
// table — the serial reference path used by All, ByID, and the exported
// per-experiment functions. Runner is the parallel equivalent; a golden test
// holds the two byte-identical.
func (s spec) run() Table {
	t := s.shell
	for _, c := range s.cells {
		t.Rows = append(t.Rows, c().rows...)
	}
	return t
}

// registry is the single ordered source of truth for the experiment suite.
// All, ByID, IDs, and the Runner all derive from it, so they cannot drift.
var registry = []struct {
	id   string
	spec func(Options) spec
}{
	{"E1", e1Spec},
	{"E2", e2Spec},
	{"E3", e3Spec},
	{"E4", e4Spec},
	{"E5", e5Spec},
	{"E6", e6Spec},
	{"E7", e7Spec},
	{"E8", e8Spec},
	{"E9", e9Spec},
	{"E10", e10Spec},
	{"E11", e11Spec},
	{"E12", e12Spec},
	{"E13", e13Spec},
	{"E14", e14Spec},
}

// IDs returns the experiment IDs in suite order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// All runs every experiment in order, serially.
func All(opts Options) []Table {
	out := make([]Table, len(registry))
	for i, e := range registry {
		out[i] = e.spec(opts).run()
	}
	return out
}

// ByID runs the experiment with the given ID (case-insensitive, "e1".."e9").
func ByID(id string, opts Options) (Table, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.id, id) {
			return e.spec(opts).run(), true
		}
	}
	return Table{}, false
}

// specsFor resolves experiment IDs to specs in the given order; nil or empty
// ids selects the whole suite. Unknown IDs error with the valid list.
func specsFor(ids []string, opts Options) ([]spec, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	specs := make([]spec, 0, len(ids))
	for _, id := range ids {
		found := false
		for _, e := range registry {
			if strings.EqualFold(e.id, id) {
				specs = append(specs, e.spec(opts))
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown experiment %q (want one of %s)",
				id, strings.Join(IDs(), " "))
		}
	}
	return specs, nil
}
