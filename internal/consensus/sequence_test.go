package consensus

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runTOB(t *testing.T, factory model.AutomatonFactory, fp *model.FailurePattern,
	det fd.Detector, perProc int, seed int64) (*trace.Recorder, []string, model.Time) {
	t.Helper()
	rec := trace.NewRecorder(fp.N())
	k := sim.New(fp, det, factory, sim.Options{Seed: seed})
	k.SetObserver(rec)
	var ids []string
	for i := 0; i < perProc; i++ {
		for _, p := range model.Procs(fp.N()) {
			id := fmt.Sprintf("p%d#%d", p, i+1)
			ids = append(ids, id)
			k.ScheduleInput(p, model.Time(30+60*i)+model.Time(p), model.BroadcastInput{ID: id})
		}
	}
	k.RunUntil(60000, func(k *sim.Kernel) bool { return rec.AllDelivered(fp.Correct(), ids) })
	settleAt := k.Now()
	k.Run(settleAt + 500)
	return rec, ids, settleAt
}

func TestTOBFactoryIsStrongTOB(t *testing.T) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	rec, ids, settleAt := runTOB(t, TOBFactory(MajorityQuorums), fp, det, 3, 5)
	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: settleAt})
	if !rep.OK() || !rep.StrongTOB() {
		t.Fatalf("consensus-based TOB must be strong: τ=%d %+v", rep.Tau, rep)
	}
	for _, p := range fp.Correct() {
		if got := len(rec.FinalSeq(p)); got != len(ids) {
			t.Errorf("%v delivered %d, want %d", p, got, len(ids))
		}
	}
}

func TestTOBFactoryStrongUnderChurnAndCrash(t *testing.T) {
	// Even with Ω churn and a crash, batches agree from instance 1: the
	// delivered sequences never diverge (τ = 0).
	fp := model.NewFailurePattern(5)
	fp.Crash(5, 600)
	det := fd.NewOmegaRotating(fp, 2, 900, 70)
	rec := trace.NewRecorder(5)
	k := sim.New(fp, det, TOBFactory(MajorityQuorums), sim.Options{Seed: 23})
	k.SetObserver(rec)
	var ids []string
	for _, p := range model.Procs(5) {
		id := fmt.Sprintf("m%d", p)
		ids = append(ids, id)
		k.ScheduleInput(p, 30+model.Time(p), model.BroadcastInput{ID: id})
	}
	k.RunUntil(60000, func(k *sim.Kernel) bool {
		return rec.AllDelivered(fp.Correct(), ids[:4]) // p5's message may be lost with it
	})
	settleAt := k.Now()
	k.Run(settleAt + 500)
	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{InputCutoff: 1, SettleTime: settleAt})
	if !rep.NoCreation.OK || !rep.NoDuplication.OK {
		t.Fatalf("safety: %+v", rep)
	}
	if rep.Tau != 0 {
		t.Fatalf("strong TOB must never diverge: τ=%d (stab %d, order %d)", rep.Tau, rep.StabilityTau, rep.TotalOrderTau)
	}
}
