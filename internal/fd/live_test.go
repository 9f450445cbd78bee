package fd

import (
	"testing"

	"repro/internal/model"
)

// TestOmegaUp: leadership follows the smallest up process across down
// intervals and stabilizes at Stab, whatever order the queries come in.
func TestOmegaUp(t *testing.T) {
	// p1 down [100, 300), p2 down [200, 400); stabilization at 500.
	up := func(p model.ProcID, tt model.Time) bool {
		switch p {
		case 1:
			return tt < 100 || tt >= 300
		case 2:
			return tt < 200 || tt >= 400
		default:
			return true
		}
	}
	o := NewOmegaUp(3, 1, 500, up)

	for _, tc := range []struct {
		t    model.Time
		want model.ProcID
	}{
		{0, 1},   // everyone up: smallest
		{150, 2}, // p1 down
		{250, 3}, // p1 and p2 down
		{350, 1}, // p1 back
		{600, 1}, // stabilized
		{250, 3}, // back across three boundaries
		{0, 1},
		{9000, 1},
	} {
		if got := o.Value(2, tc.t).(model.ProcID); got != tc.want {
			t.Errorf("Value(t=%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}
