package consensus

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

func broadcastAll(k *sim.Kernel, n, perProc int, t0, gap model.Time) []string {
	var ids []string
	for i := 0; i < perProc; i++ {
		for _, p := range model.Procs(n) {
			id := fmt.Sprintf("p%d#%d", p, i+1)
			ids = append(ids, id)
			k.ScheduleInput(p, t0+model.Time(i)*gap+model.Time(p), model.BroadcastInput{ID: id})
		}
	}
	return ids
}

func TestLogStableLeaderStrongTOB(t *testing.T) {
	fp := model.NewFailurePattern(5)
	det := fd.NewOmegaStable(fp, 1)
	rec := trace.NewRecorder(5)
	k := sim.New(fp, det, LogFactory(MajorityQuorums), sim.Options{Seed: 3})
	k.SetObserver(rec)
	ids := broadcastAll(k, 5, 3, 30, 50)
	k.RunUntil(20000, func(k *sim.Kernel) bool { return rec.AllDelivered(fp.Correct(), ids) })
	settleAt := k.Now()
	k.Run(settleAt + 500)
	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: settleAt})
	if !rep.OK() {
		t.Fatalf("Paxos log violates TOB: %+v", rep)
	}
	if !rep.StrongTOB() {
		t.Fatalf("Paxos log must satisfy STRONG TOB (τ=0), got τ=%d", rep.Tau)
	}
	for _, p := range fp.Correct() {
		if got := len(rec.FinalSeq(p)); got != 15 {
			t.Errorf("%v delivered %d, want 15", p, got)
		}
	}
}

func TestLogStrongEvenWithLeaderChurn(t *testing.T) {
	// The crucial contrast with ETOB: even while Ω misbehaves, Paxos
	// sequences never diverge — consistency is never violated (τ=0);
	// only liveness may suffer during churn.
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaRotating(fp, 1, 1500, 60)
	rec := trace.NewRecorder(3)
	k := sim.New(fp, det, LogFactory(MajorityQuorums), sim.Options{Seed: 17})
	k.SetObserver(rec)
	ids := broadcastAll(k, 3, 3, 30, 80)
	k.RunUntil(40000, func(k *sim.Kernel) bool { return rec.AllDelivered(fp.Correct(), ids) })
	settleAt := k.Now()
	k.Run(settleAt + 500)
	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: settleAt})
	if !rep.OK() || !rep.StrongTOB() {
		t.Fatalf("Paxos under churn must stay strongly consistent: τ=%d %+v", rep.Tau, rep)
	}
}

func TestLogCrashMinorityStillLive(t *testing.T) {
	fp := model.NewFailurePattern(5)
	fp.Crash(4, 400)
	fp.Crash(5, 500)
	det := fd.NewOmegaEventual(fp, 1, 600)
	rec := trace.NewRecorder(5)
	k := sim.New(fp, det, LogFactory(MajorityQuorums), sim.Options{Seed: 29})
	k.SetObserver(rec)
	ids := broadcastAll(k, 5, 2, 30, 60)
	// Only require messages from correct processes (faulty broadcasters may
	// crash before their submit propagates).
	var mustHave []string
	for _, id := range ids {
		var p int
		var i int
		fmt.Sscanf(id, "p%d#%d", &p, &i)
		if fp.IsCorrect(model.ProcID(p)) {
			mustHave = append(mustHave, id)
		}
	}
	k.RunUntil(40000, func(k *sim.Kernel) bool { return rec.AllDelivered(fp.Correct(), mustHave) })
	settleAt := k.Now()
	k.Run(settleAt + 500)
	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{InputCutoff: 300, SettleTime: settleAt})
	if !rep.OK() || !rep.StrongTOB() {
		t.Fatalf("minority crash must not break Paxos: τ=%d %+v", rep.Tau, rep)
	}
}

func TestLogBlocksWithoutMajority(t *testing.T) {
	// E5's negative half: 2 correct of 5 — majority quorums unreachable, the
	// log must deliver nothing (it stays safe but not live).
	fp := model.NewFailurePattern(5)
	fp.Crash(3, 0)
	fp.Crash(4, 0)
	fp.Crash(5, 0)
	det := fd.NewOmegaStable(fp, 1)
	rec := trace.NewRecorder(5)
	k := sim.New(fp, det, LogFactory(MajorityQuorums), sim.Options{Seed: 31})
	k.SetObserver(rec)
	broadcastAll(k, 5, 2, 30, 60)
	k.Run(8000)
	for _, p := range fp.Correct() {
		if got := len(rec.FinalSeq(p)); got != 0 {
			t.Fatalf("%v delivered %d messages without a correct majority", p, got)
		}
	}
}

func TestLogSigmaQuorumsLiveWithoutMajority(t *testing.T) {
	// E5's positive half: with the Σ oracle (Ω+Σ detector) the same log is
	// live even with a correct minority — Σ is exactly the missing
	// information, not a majority per se.
	fp := model.NewFailurePattern(5)
	fp.Crash(3, 0)
	fp.Crash(4, 0)
	fp.Crash(5, 0)
	det := fd.NewOmegaSigma(fd.NewOmegaStable(fp, 1), fd.NewSigma(fp, 0))
	rec := trace.NewRecorder(5)
	k := sim.New(fp, det, LogFactory(SigmaQuorums), sim.Options{Seed: 37})
	k.SetObserver(rec)
	ids := []string{"a", "b", "c"}
	for i, id := range ids {
		k.ScheduleInput(1, model.Time(30+20*i), model.BroadcastInput{ID: id})
	}
	k.RunUntil(20000, func(k *sim.Kernel) bool { return rec.AllDelivered(fp.Correct(), ids) })
	settleAt := k.Now()
	k.Run(settleAt + 500)
	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: settleAt})
	if !rep.OK() || !rep.StrongTOB() {
		t.Fatalf("Σ-quorum log must be live and strong with minority correct: %+v", rep)
	}
	for _, p := range fp.Correct() {
		if got := len(rec.FinalSeq(p)); got != 3 {
			t.Errorf("%v delivered %d, want 3", p, got)
		}
	}
}

func TestLogNoDuplicationAcrossLeaderChange(t *testing.T) {
	// A value accepted under one leader and re-proposed by the next must be
	// delivered exactly once.
	fp := model.NewFailurePattern(3)
	fp.Crash(1, 800) // first leader crashes mid-run
	det := fd.NewOmegaEventual(fp, 2, 1000)
	rec := trace.NewRecorder(3)
	k := sim.New(fp, det, LogFactory(MajorityQuorums), sim.Options{Seed: 41})
	k.SetObserver(rec)
	ids := broadcastAll(k, 3, 2, 30, 100)
	_ = ids
	k.Run(20000)
	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: 15000})
	if !rep.NoDuplication.OK {
		t.Fatalf("duplicate deliveries across leader change: %v", rep.NoDuplication.Violations)
	}
	if !rep.NoCreation.OK {
		t.Fatalf("no-creation: %v", rep.NoCreation.Violations)
	}
	if rep.Tau != 0 {
		t.Fatalf("strong TOB requires τ=0, got %d", rep.Tau)
	}
}

func TestSequenceSingleInstanceAgreement(t *testing.T) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 2)
	rec := trace.NewRecorder(3)
	k := sim.New(fp, det, SequenceFactory(MajorityQuorums), sim.Options{Seed: 7})
	k.SetObserver(rec)
	for _, p := range model.Procs(3) {
		k.ScheduleInput(p, 10+model.Time(p), model.ProposeInput{Instance: 1, Value: fmt.Sprintf("v%v", p)})
	}
	k.RunUntil(10000, func(k *sim.Kernel) bool { return rec.AllDecided(fp.Correct(), 1) })
	rep := trace.CheckEC(rec, fp.Correct(), 1)
	if !rep.OK() {
		t.Fatalf("consensus violates spec: %+v", rep)
	}
	if rep.AgreementK != 1 {
		t.Fatalf("STRONG consensus must agree from instance 1, got k=%d", rep.AgreementK)
	}
}

func TestSequenceManyInstancesAgreeEverywhere(t *testing.T) {
	// Even with Ω churn, every instance agrees (strong safety) — contrast
	// with ec.Automaton where pre-stabilization instances may disagree.
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaRotating(fp, 1, 700, 40)
	rec := trace.NewRecorder(3)
	k := sim.New(fp, det, SequenceFactory(MajorityQuorums), sim.Options{Seed: 19})
	k.SetObserver(rec)
	for l := 1; l <= 4; l++ {
		for _, p := range model.Procs(3) {
			k.ScheduleInput(p, model.Time(10*l)+model.Time(p), model.ProposeInput{Instance: l, Value: fmt.Sprintf("v%v-%d", p, l)})
		}
	}
	k.RunUntil(40000, func(k *sim.Kernel) bool { return rec.AllDecided(fp.Correct(), 4) })
	rep := trace.CheckEC(rec, fp.Correct(), 4)
	if !rep.OK() {
		t.Fatalf("sequence violates consensus: %+v", rep)
	}
	if rep.AgreementK != 1 {
		t.Fatalf("every instance must agree (k=1), got k=%d", rep.AgreementK)
	}
}

func TestSequenceChosenInspection(t *testing.T) {
	fp := model.NewFailurePattern(2)
	det := fd.NewOmegaStable(fp, 1)
	k := sim.New(fp, det, SequenceFactory(MajorityQuorums), sim.Options{Seed: 2})
	k.ScheduleInput(1, 10, model.ProposeInput{Instance: 1, Value: "x"})
	k.Run(4000)
	s := k.Automaton(1).(*Sequence)
	if v, ok := s.Chosen(1); !ok || v != "x" {
		t.Fatalf("Chosen(1) = %q,%v want x,true", v, ok)
	}
	if _, ok := s.Chosen(9); ok {
		t.Fatal("undecided instance must not report chosen")
	}
}

func TestBallotUniquenessAndMonotonicity(t *testing.T) {
	l := NewLog(2, 3, MajorityQuorums)
	b1 := l.nextBallot()
	l.observeBallot(b1 + 100)
	b2 := l.nextBallot()
	if b2 <= b1+100 {
		t.Fatalf("nextBallot %d must exceed everything seen (%d)", b2, b1+100)
	}
	if b1%3 != b2%3 {
		t.Fatal("ballots of one process must share its residue class")
	}
	other := NewLog(3, 3, MajorityQuorums)
	if other.nextBallot()%3 == b1%3 {
		t.Fatal("distinct processes must draw from distinct residue classes")
	}
}

// traceObs flattens a run into a comparable event string sequence.
type traceObs struct {
	sim.NopObserver
	events []string
}

func (o *traceObs) OnSend(t model.Time, m sim.Message) {
	o.events = append(o.events, fmt.Sprintf("S %d #%d %v->%v %+v", t, m.ID, m.From, m.To, m.Payload))
}

func (o *traceObs) OnDeliver(t model.Time, m sim.Message) {
	o.events = append(o.events, fmt.Sprintf("D %d #%d %v->%v %+v", t, m.ID, m.From, m.To, m.Payload))
}

func (o *traceObs) OnOutput(p model.ProcID, t model.Time, v any) {
	o.events = append(o.events, fmt.Sprintf("O %d %v %+v", t, p, v))
}

// TestPaxosTraceDeterminism covers the map-iteration audit in paxos.go: the
// leader's retransmission and re-proposal loops must emit messages in sorted
// instance order, so same seed ⇒ same trace.
func TestPaxosTraceDeterminism(t *testing.T) {
	run := func() []string {
		fp := model.NewFailurePattern(5)
		fp.Crash(5, 400)
		det := fd.NewOmegaEventual(fp, 2, 300) // leadership churn → re-proposals
		obs := &traceObs{}
		k := sim.New(fp, det, LogFactory(MajorityQuorums), sim.Options{Seed: 5})
		k.SetObserver(obs)
		for i := 0; i < 6; i++ {
			p := model.ProcID(i%4 + 1)
			k.ScheduleInput(p, model.Time(30+40*i), model.BroadcastInput{ID: fmt.Sprintf("m%d", i)})
		}
		k.Run(5000)
		return obs.events
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Paxos traces diverge at event %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}
