package bench

import "testing"

// TestScaleNDeterministicAndComplete pins the En sweep's contract: one row
// per n, every (op, process) delivery inside the horizon, one update
// envelope per process per op (all-to-all, the sender's own copy
// included), and two same-seed runs equal in every field but the wall-clock
// ones.
func TestScaleNDeterministicAndComplete(t *testing.T) {
	ns := []int{5, 16}
	a := ScaleN(ns, true, 42)
	b := ScaleN(ns, true, 42)
	if len(a) != len(ns) || len(b) != len(ns) {
		t.Fatalf("got %d and %d rows, want one per n (%d)", len(a), len(b), len(ns))
	}
	for i, n := range ns {
		r := a[i]
		if r.N != n {
			t.Errorf("row %d: n = %d, want %d", i, r.N, n)
		}
		if r.DeliveredPct != 100 {
			t.Errorf("n=%d: delivered %.1f%%, want 100%%", n, r.DeliveredPct)
		}
		if r.EnvPerOp != float64(n) {
			t.Errorf("n=%d: %.2f envelopes/op, want %d", n, r.EnvPerOp, n)
		}
		x, y := a[i], b[i]
		x.WallMS, x.StepsPerSec = 0, 0
		y.WallMS, y.StepsPerSec = 0, 0
		if x != y {
			t.Errorf("n=%d: same-seed runs differ:\n%+v\n%+v", n, x, y)
		}
	}
}
