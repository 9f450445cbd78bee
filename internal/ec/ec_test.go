package ec

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runEC executes Algorithm 4 with a per-process driver proposing distinct
// values "v/<proc>/<instance>" and returns the recorded trace.
func runEC(t *testing.T, fp *model.FailurePattern, det fd.Detector, horizon model.Time, seed int64) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder(fp.N())
	driver := func(p model.ProcID, inst int) (string, bool) {
		return fmt.Sprintf("v/%v/%d", p, inst), true
	}
	k := sim.New(fp, det, DrivenFactory(driver), sim.Options{Seed: seed})
	k.SetObserver(rec)
	k.Run(horizon)
	return rec
}

func TestECStableLeaderAgreesFromStart(t *testing.T) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	rec := runEC(t, fp, det, 4000, 1)
	rep := trace.CheckEC(rec, fp.Correct(), 10)
	if !rep.OK() {
		t.Fatalf("EC spec violated: %+v", rep)
	}
	if rep.AgreementK != 1 {
		t.Errorf("stable Ω from t=0: AgreementK = %d, want 1", rep.AgreementK)
	}
	// All decisions must carry the leader's values.
	for _, p := range fp.Correct() {
		for _, d := range rec.Decisions(p) {
			want := fmt.Sprintf("v/p1/%d", d.Instance)
			if d.Value != want {
				t.Errorf("%v decided %q in instance %d, want %q", p, d.Value, d.Instance, want)
			}
		}
	}
}

func TestECEventualLeaderEventuallyAgrees(t *testing.T) {
	fp := model.NewFailurePattern(4)
	det := fd.NewOmegaEventual(fp, 2, 800) // everyone trusts itself until t=800
	rec := runEC(t, fp, det, 20000, 42)
	rep := trace.CheckEC(rec, fp.Correct(), 8)
	if !rep.OK() {
		t.Fatalf("EC spec violated: %+v", rep)
	}
	if rep.AgreementK <= 1 {
		t.Errorf("self-trust until t=800 should cause early disagreement; AgreementK = %d", rep.AgreementK)
	}
	t.Logf("AgreementK = %d, MaxInstance = %d", rep.AgreementK, rep.MaxInstance)
}

func TestECAnyEnvironmentMinorityCorrect(t *testing.T) {
	// Lemma 2: EC works in ANY environment — here 1 correct of 5.
	fp := model.NewFailurePattern(5)
	for i := 2; i <= 5; i++ {
		fp.Crash(model.ProcID(i), model.Time(40*i))
	}
	det := fd.NewOmegaEventual(fp, 1, 500)
	rec := runEC(t, fp, det, 20000, 7)
	rep := trace.CheckEC(rec, fp.Correct(), 8)
	if !rep.OK() {
		t.Fatalf("EC must terminate with a single correct process: %+v", rep)
	}
}

func TestECRotatingLeaderChurn(t *testing.T) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaRotating(fp, 2, 600, 30)
	rec := runEC(t, fp, det, 15000, 99)
	rep := trace.CheckEC(rec, fp.Correct(), 6)
	if !rep.OK() {
		t.Fatalf("EC under churn: %+v", rep)
	}
}

func TestECIntegritySingleDecisionPerInstance(t *testing.T) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaEventual(fp, 1, 300)
	rec := runEC(t, fp, det, 10000, 5)
	for _, p := range model.Procs(3) {
		seen := map[int]int{}
		for _, d := range rec.Decisions(p) {
			seen[d.Instance]++
			if seen[d.Instance] > 1 {
				t.Fatalf("%v decided instance %d twice", p, d.Instance)
			}
		}
	}
}

func TestECManualPropose(t *testing.T) {
	// Drive proposeEC_1 through kernel inputs (no driver).
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 2)
	rec := trace.NewRecorder(3)
	k := sim.New(fp, det, Factory(), sim.Options{Seed: 3})
	k.SetObserver(rec)
	for _, p := range model.Procs(3) {
		k.ScheduleInput(p, 10, model.ProposeInput{Instance: 1, Value: fmt.Sprintf("x%v", p)})
	}
	k.Run(3000)
	rep := trace.CheckEC(rec, fp.Correct(), 1)
	if !rep.OK() {
		t.Fatalf("manual single instance: %+v", rep)
	}
	for _, p := range fp.Correct() {
		ds := rec.Decisions(p)
		if len(ds) != 1 || ds[0].Value != "xp2" {
			t.Fatalf("%v decisions = %+v, want one decision xp2", p, ds)
		}
	}
}

func TestECDecidedUpTo(t *testing.T) {
	fp := model.NewFailurePattern(2)
	det := fd.NewOmegaStable(fp, 1)
	driver := func(p model.ProcID, inst int) (string, bool) { return "v", inst <= 5 }
	k := sim.New(fp, det, DrivenFactory(driver), sim.Options{Seed: 1})
	k.Run(5000)
	a := k.Automaton(1).(*Automaton)
	if a.DecidedUpTo() != 5 {
		t.Errorf("DecidedUpTo = %d, want 5", a.DecidedUpTo())
	}
	if a.Count() != 5 {
		t.Errorf("Count = %d, want 5 (driver stopped)", a.Count())
	}
}

func TestECProposeRejectsBadInstance(t *testing.T) {
	a := New(1, 2)
	defer func() {
		if recover() == nil {
			t.Error("instance 0 must panic")
		}
	}()
	a.propose(nil, 0, "v")
}

func TestECIgnoresForeignPayloadsAndInputs(t *testing.T) {
	fp := model.NewFailurePattern(2)
	det := fd.NewOmegaStable(fp, 1)
	k := sim.New(fp, det, Factory(), sim.Options{Seed: 1})
	k.ScheduleInput(1, 5, "not-a-propose")
	k.Run(100) // must not panic
	a := k.Automaton(1).(*Automaton)
	a.Recv(nil, 2, 42) // foreign payload ignored
	if a.Count() != 0 {
		t.Error("foreign input must not start an instance")
	}
}

// BenchmarkECInstances measures Algorithm 4 instance throughput.
func BenchmarkECInstances(b *testing.B) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	driver := func(p model.ProcID, inst int) (string, bool) { return "v", inst <= 50 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.New(fp, det, DrivenFactory(driver), sim.Options{Seed: int64(i)})
		k.Run(8000)
	}
}
