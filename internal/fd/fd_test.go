package fd

import (
	"testing"

	"repro/internal/model"
)

func fp4() *model.FailurePattern {
	fp := model.NewFailurePattern(4)
	fp.Crash(4, 100)
	return fp
}

func TestOmegaStable(t *testing.T) {
	fp := fp4()
	o := NewOmegaStable(fp, 2)
	for _, p := range model.Procs(4) {
		for _, tm := range []model.Time{0, 1, 500} {
			if got := o.Value(p, tm); got != OmegaValue(2) {
				t.Errorf("Value(%v,%d) = %v, want p2", p, tm, got)
			}
		}
	}
	if o.StabTime() != 0 || o.Leader() != 2 {
		t.Error("stable omega accessors wrong")
	}
}

func TestOmegaEventualSelfTrust(t *testing.T) {
	fp := fp4()
	o := NewOmegaEventual(fp, 1, 50)
	if got := o.Value(3, 49); got != OmegaValue(3) {
		t.Errorf("before stab each process trusts itself: got %v", got)
	}
	if got := o.Value(3, 50); got != OmegaValue(1) {
		t.Errorf("at stab the leader is output: got %v", got)
	}
}

func TestOmegaRotating(t *testing.T) {
	fp := fp4()
	o := NewOmegaRotating(fp, 1, 100, 10)
	seen := map[OmegaValue]bool{}
	for tm := model.Time(0); tm < 100; tm += 10 {
		seen[o.Value(1, tm).(OmegaValue)] = true
	}
	if len(seen) != 4 {
		t.Errorf("rotation covered %d leaders, want 4", len(seen))
	}
	if got := o.Value(1, 100); got != OmegaValue(1) {
		t.Errorf("after stab: %v, want p1", got)
	}
}

func TestOmegaSplit(t *testing.T) {
	fp := fp4()
	o := NewOmegaSplit(fp, 1, 2, 3, 40)
	if got := o.Value(2, 0); got != OmegaValue(1) {
		t.Errorf("even process pre-stab: %v, want p1", got)
	}
	if got := o.Value(3, 0); got != OmegaValue(2) {
		t.Errorf("odd process pre-stab: %v, want p2", got)
	}
	if got := o.Value(2, 40); got != OmegaValue(3) {
		t.Errorf("post-stab: %v, want p3", got)
	}
}

func TestOmegaRejectsFaultyLeader(t *testing.T) {
	fp := fp4()
	defer func() {
		if recover() == nil {
			t.Error("eventual leader must be correct")
		}
	}()
	NewOmegaStable(fp, 4)
}

func TestOmegaSpecHolds(t *testing.T) {
	// Ω spec: there is a time after which the same correct process is output
	// at every correct process, for each variant.
	fp := fp4()
	variants := []*Omega{
		NewOmegaStable(fp, 1),
		NewOmegaEventual(fp, 2, 33),
		NewOmegaRotating(fp, 3, 77, 5),
		NewOmegaSplit(fp, 1, 3, 2, 61),
	}
	for i, o := range variants {
		after := o.StabTime()
		want := o.Leader()
		if !fp.IsCorrect(want) {
			t.Fatalf("variant %d: leader %v not correct", i, want)
		}
		for _, p := range fp.Correct() {
			for dt := model.Time(0); dt < 200; dt += 7 {
				if got := o.Value(p, after+dt); got != want {
					t.Errorf("variant %d: Value(%v,%d) = %v, want %v", i, p, after+dt, got, want)
				}
			}
		}
	}
}

func TestSigmaIntersection(t *testing.T) {
	fp := fp4()
	s := NewSigma(fp, 50)
	// Any two quorums output at any times/processes intersect.
	times := []model.Time{0, 10, 49, 50, 51, 1000}
	var quorums []SigmaValue
	for _, p := range model.Procs(4) {
		for _, tm := range times {
			quorums = append(quorums, s.Value(p, tm).(SigmaValue))
		}
	}
	for i := range quorums {
		for j := range quorums {
			if !intersects(quorums[i], quorums[j]) {
				t.Fatalf("quorums %v and %v do not intersect", quorums[i], quorums[j])
			}
		}
	}
	// Eventually only correct processes.
	q := s.Value(1, 60).(SigmaValue)
	for _, p := range q {
		if !fp.IsCorrect(p) {
			t.Errorf("post-stab quorum contains faulty %v", p)
		}
	}
}

func TestSigmaMinorityCorrect(t *testing.T) {
	// Σ as an oracle is well-defined even with a minority correct — the
	// paper's point is that it cannot be *implemented* there.
	fp := model.NewFailurePattern(5)
	for _, p := range []model.ProcID{3, 4, 5} {
		fp.Crash(p, 10)
	}
	s := NewSigma(fp, 20)
	q1 := s.Value(1, 0).(SigmaValue)
	q2 := s.Value(2, 30).(SigmaValue)
	if !intersects(q1, q2) {
		t.Fatal("pre/post-stab quorums must intersect")
	}
	if len(q2) != 2 {
		t.Fatalf("post-stab quorum = %v, want the 2 correct processes", q2)
	}
}

func TestPerfect(t *testing.T) {
	fp := fp4()
	d := NewPerfect(fp)
	if got := d.Value(1, 99).(SuspectValue); len(got) != 0 {
		t.Errorf("no suspects before any crash: %v", got)
	}
	if got := d.Value(1, 100).(SuspectValue); len(got) != 1 || got[0] != 4 {
		t.Errorf("suspects at crash time = %v, want [p4]", got)
	}
}

func TestOmegaSigmaComposite(t *testing.T) {
	fp := fp4()
	d := NewOmegaSigma(NewOmegaStable(fp, 1), NewSigma(fp, 0))
	v := d.Value(2, 5).(OmegaSigmaValue)
	if v.Leader != 1 {
		t.Errorf("leader = %v, want p1", v.Leader)
	}
	if len(v.Quorum) != 3 {
		t.Errorf("quorum = %v, want 3 correct processes", v.Quorum)
	}
	if d.Name() != "Omega+Sigma" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestLeaderOfAndQuorumOf(t *testing.T) {
	fp := fp4()
	comp := NewOmegaSigma(NewOmegaStable(fp, 1), NewSigma(fp, 0))
	if l, ok := LeaderOf(comp.Value(1, 0)); !ok || l != 1 {
		t.Errorf("LeaderOf composite = %v,%v", l, ok)
	}
	if l, ok := LeaderOf(OmegaValue(3)); !ok || l != 3 {
		t.Errorf("LeaderOf plain = %v,%v", l, ok)
	}
	if _, ok := LeaderOf("junk"); ok {
		t.Error("LeaderOf must reject foreign values")
	}
	if q, ok := QuorumOf(comp.Value(1, 0)); !ok || len(q) == 0 {
		t.Error("QuorumOf composite failed")
	}
	if q, ok := QuorumOf(SigmaValue{1, 2}); !ok || len(q) != 2 {
		t.Errorf("QuorumOf plain = %v,%v", q, ok)
	}
	if _, ok := QuorumOf(42); ok {
		t.Error("QuorumOf must reject foreign values")
	}
}

func TestDetectorNames(t *testing.T) {
	fp := fp4()
	names := map[string]Detector{
		"Omega": NewOmegaStable(fp, 1),
		"Sigma": NewSigma(fp, 0),
		"P":     NewPerfect(fp),
	}
	for want, d := range names {
		if d.Name() != want {
			t.Errorf("Name = %q, want %q", d.Name(), want)
		}
	}
}

func intersects(a, b SigmaValue) bool {
	set := make(map[model.ProcID]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	for _, p := range b {
		if set[p] {
			return true
		}
	}
	return false
}

var sink any

// TestValueAllocatesNothing: every Ω and Σ history answers a query without
// allocating, before and after stabilization, so the kernel can read it at
// every step with nothing in between.
func TestValueAllocatesNothing(t *testing.T) {
	fp := fp4()
	up := func(p model.ProcID, tt model.Time) bool { return p != 1 || tt >= 30 }
	for name, d := range map[string]Detector{
		"omega-stable":   NewOmegaStable(fp, 1),
		"omega-eventual": NewOmegaEventual(fp, 1, 50),
		"omega-rotating": NewOmegaRotating(fp, 1, 50, 7),
		"omega-split":    NewOmegaSplit(fp, 2, 1, 3, 50),
		"omega-up":       NewOmegaUp(4, 2, 50, up),
		"sigma":          NewSigma(fp, 50),
		"omega-sigma":    NewOmegaSigma(NewOmegaRotating(fp, 1, 40, 7), NewSigma(fp, 50)),
	} {
		t.Run(name, func(t *testing.T) {
			for _, p := range model.Procs(4) {
				for _, tt := range []model.Time{0, 20, 45, 50, 500} {
					if n := testing.AllocsPerRun(20, func() { sink = d.Value(p, tt) }); n != 0 {
						t.Errorf("Value(%v, %d) allocates %.0f times", p, tt, n)
					}
				}
			}
		})
	}
}
