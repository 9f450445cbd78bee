package bench

import (
	"strconv"
	"testing"
)

// e13ConvergedAt extracts the "converged at" cell per (workload, scheduler)
// from an E13 table.
func e13ConvergedAt(t *testing.T, tbl Table) map[[2]string]int {
	t.Helper()
	out := map[[2]string]int{}
	for _, row := range tbl.Rows {
		if row[2] != "yes" {
			t.Fatalf("cell (%s, %s) did not converge: %v", row[0], row[1], row)
		}
		v, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("non-numeric converged-at cell in %v: %v", row, err)
		}
		out[[2]string{row[0], row[1]}] = v
	}
	return out
}

// TestE13LeaderAwareDominatesBlind pins the acceptance property of the
// protocol-aware adversary, at both workload scales: the leader-aware
// schedule delays convergence AT LEAST as much as the blind rotation in
// every cell, STRICTLY more on the transform workload (the cell whose E12
// honesty note flagged the blind rotation as non-worst-case), and on that
// flagged cell it also restores the expected adversary ordering versus
// i.i.d. noise — the blind rotation converges EARLIER than i.i.d. there
// (the flagged inversion), while leader-awareness costs strictly more than
// both.
func TestE13LeaderAwareDominatesBlind(t *testing.T) {
	for _, opts := range []Options{{Quick: true}, {}} {
		name := "full"
		if opts.Quick {
			name = "quick"
		}
		t.Run(name, func(t *testing.T) {
			cells := e13ConvergedAt(t, table(t, opts, "E13"))
			for _, workload := range []string{"broadcast (E9)", "transform (E3)"} {
				blind := cells[[2]string{workload, "blind-rotation"}]
				aware := cells[[2]string{workload, "leader-aware"}]
				if blind == 0 || aware == 0 {
					t.Fatalf("%s: missing scheduler rows in %v", workload, cells)
				}
				if aware < blind {
					t.Errorf("%s: leader-aware converged at %d, EARLIER than blind rotation at %d", workload, aware, blind)
				}
			}
			iid := cells[[2]string{"transform (E3)", "i.i.d."}]
			blind := cells[[2]string{"transform (E3)", "blind-rotation"}]
			aware := cells[[2]string{"transform (E3)", "leader-aware"}]
			if aware <= blind {
				t.Errorf("transform: leader-aware converged at %d, want strictly later than blind rotation's %d (the flagged cell)", aware, blind)
			}
			if blind >= iid {
				t.Errorf("transform: blind rotation converged at %d, i.i.d. at %d — the E12 inversion this experiment documents has vanished; re-examine the claim text", blind, iid)
			}
			if aware <= iid {
				t.Errorf("transform: leader-aware converged at %d, want strictly later than i.i.d.'s %d (protocol-awareness must beat noise)", aware, iid)
			}
		})
	}
}
