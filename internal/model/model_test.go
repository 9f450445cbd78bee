package model

import (
	"testing"
	"testing/quick"
)

func TestProcs(t *testing.T) {
	ps := Procs(4)
	if len(ps) != 4 {
		t.Fatalf("Procs(4) len = %d, want 4", len(ps))
	}
	for i, p := range ps {
		if int(p) != i+1 {
			t.Errorf("Procs(4)[%d] = %v, want p%d", i, p, i+1)
		}
	}
	if ps[0].String() != "p1" {
		t.Errorf("String() = %q, want p1", ps[0].String())
	}
	if NoProc.String() != "p?" {
		t.Errorf("NoProc.String() = %q", NoProc.String())
	}
}

func TestFailurePatternBasics(t *testing.T) {
	fp := NewFailurePattern(4)
	if got := len(fp.Correct()); got != 4 {
		t.Fatalf("failure-free Correct() len = %d, want 4", got)
	}
	fp.Crash(2, 10)
	fp.Crash(4, 0)

	if fp.Crashed(2, 9) {
		t.Error("p2 should not be crashed at t=9")
	}
	if !fp.Crashed(2, 10) {
		t.Error("p2 should be crashed at t=10 (crashed BY t)")
	}
	if !fp.Crashed(2, 1000) {
		t.Error("crashes are permanent: p2 must stay crashed")
	}
	if !fp.Crashed(4, 0) {
		t.Error("p4 crashes at t=0")
	}
	if fp.IsCorrect(2) || fp.IsCorrect(4) {
		t.Error("p2 and p4 are faulty")
	}
	if !fp.IsCorrect(1) || !fp.IsCorrect(3) {
		t.Error("p1 and p3 are correct")
	}

	if got := fp.Faulty(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("Faulty() = %v, want [p2 p4]", got)
	}
	if got := fp.Correct(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Correct() = %v, want [p1 p3]", got)
	}
	if got := fp.AliveAt(5); len(got) != 3 {
		t.Errorf("AliveAt(5) = %v, want 3 alive (p4 crashed at 0)", got)
	}
	if fp.MinCorrect() != 1 {
		t.Errorf("MinCorrect() = %v, want p1", fp.MinCorrect())
	}
	if fp.HasCorrectMajority() {
		t.Error("2 of 4 correct is not a majority")
	}
	if fp.CrashTime(1) != TimeNever {
		t.Errorf("CrashTime(p1) = %d, want TimeNever", fp.CrashTime(1))
	}
	if fp.CrashTime(2) != 10 {
		t.Errorf("CrashTime(p2) = %d, want 10", fp.CrashTime(2))
	}
}

func TestFailurePatternEarliestCrashWins(t *testing.T) {
	fp := NewFailurePattern(3)
	fp.Crash(1, 20)
	fp.Crash(1, 50) // later crash must not delay the earlier one
	if fp.CrashTime(1) != 20 {
		t.Errorf("CrashTime = %d, want 20", fp.CrashTime(1))
	}
	fp.Crash(1, 5)
	if fp.CrashTime(1) != 5 {
		t.Errorf("CrashTime = %d, want 5 (earliest wins)", fp.CrashTime(1))
	}
}

func TestFailurePatternClone(t *testing.T) {
	fp := NewFailurePattern(3)
	fp.Crash(2, 7)
	cp := fp.Clone()
	cp.Crash(3, 1)
	if !fp.IsCorrect(3) {
		t.Error("mutating the clone must not affect the original")
	}
	if cp.IsCorrect(3) {
		t.Error("clone must record the new crash")
	}
}

func TestFailurePatternPanics(t *testing.T) {
	assertPanics(t, "n=1", func() { NewFailurePattern(1) })
	assertPanics(t, "unknown proc", func() { NewFailurePattern(3).Crash(9, 0) })
	assertPanics(t, "negative time", func() { NewFailurePattern(3).Crash(1, -1) })
	assertPanics(t, "no correct", func() {
		fp := NewFailurePattern(2)
		fp.Crash(1, 0)
		fp.Crash(2, 0)
		fp.MinCorrect()
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestEnvironments(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7} {
		for _, env := range []Environment{EnvAny(), EnvMajority(), EnvMinorityCorrect()} {
			for i, fp := range env.Samples(n) {
				if fp.N() != n {
					t.Errorf("%s sample %d: n = %d, want %d", env.Name, i, fp.N(), n)
				}
				if !env.Contains(fp) {
					t.Errorf("%s sample %d (n=%d): %v not in its own environment", env.Name, i, n, fp)
				}
				if len(fp.Correct()) == 0 {
					t.Errorf("%s sample %d (n=%d): no correct process", env.Name, i, n)
				}
			}
		}
	}
}

func TestCrashMonotoneProperty(t *testing.T) {
	// F(t) ⊆ F(t+1) for arbitrary crash sets: quick-check over random inputs.
	f := func(crashRaw []uint8, probe uint16) bool {
		n := 5
		fp := NewFailurePattern(n)
		for i, c := range crashRaw {
			p := ProcID(i%n + 1)
			if i%2 == 0 && len(fp.Correct()) > 1 {
				fp.Crash(p, Time(c))
			}
		}
		t0 := Time(probe)
		for _, p := range Procs(n) {
			if fp.Crashed(p, t0) && !fp.Crashed(p, t0+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMix64SplitMix64Vector pins Mix64 to the reference splitmix64: its first
// output from state 0 is Mix64 of the golden-gamma increment.
func TestMix64SplitMix64Vector(t *testing.T) {
	if got := Mix64(0x9e3779b97f4a7c15); got != 0xe220a8397b1dcdaf {
		t.Fatalf("Mix64(gamma) = %#x, want 0xe220a8397b1dcdaf", got)
	}
}
