package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/smr"
)

func TestConsistencyString(t *testing.T) {
	cases := map[Consistency]string{
		Eventual: "eventual", Strong: "strong", StrongSigma: "strong+sigma",
		Consistency(42): "Consistency(42)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestOmegaSpecDefaults(t *testing.T) {
	fp := model.NewFailurePattern(3)
	fp.Crash(1, 0)
	o := OmegaSpec{}.Build(fp)
	if o.Leader() != 2 {
		t.Errorf("default leader = %v, want smallest correct p2", o.Leader())
	}
	for _, pre := range []PreBehavior{PreStable, PreSelfTrust, PreSplit, PreRotating} {
		spec := OmegaSpec{Pre: pre, Stabilization: 100}
		if got := spec.Build(fp).Leader(); got != 2 {
			t.Errorf("pre=%d leader = %v", pre, got)
		}
	}
}

func TestSimServiceEventualConverges(t *testing.T) {
	svc := NewSimService(Config{
		N:     4,
		Omega: OmegaSpec{Pre: PreSplit, Stabilization: 1200},
		Sim:   simSeed(7),
	})
	for i, p := range model.Procs(4) {
		svc.Submit(p, model.Time(30+i), fmt.Sprintf("set k%d v%d", i, i))
	}
	if !svc.RunUntilConverged(20000) {
		t.Fatal("eventual service did not converge")
	}
	ref := svc.Snapshot(1)
	for _, p := range model.Procs(4) {
		if got := svc.Snapshot(p); got != ref {
			t.Errorf("%v snapshot %q != %q", p, got, ref)
		}
	}
	rep := svc.Report()
	if !rep.NoCreation.OK || !rep.NoDuplication.OK || !rep.CausalOrder.OK {
		t.Fatalf("safety: %+v", rep)
	}
}

func TestSimServiceStrongNeverDiverges(t *testing.T) {
	svc := NewSimService(Config{
		N:           3,
		Consistency: Strong,
		Machine:     smr.CounterFactory,
		Omega:       OmegaSpec{Pre: PreRotating, Stabilization: 600},
		Sim:         simSeed(9),
	})
	for _, p := range model.Procs(3) {
		svc.Submit(p, 40, "inc total")
	}
	if !svc.RunUntilConverged(30000) {
		t.Fatal("strong service did not converge")
	}
	for _, p := range model.Procs(3) {
		if svc.Rebuilds(p) != 0 {
			t.Errorf("%v rebuilt under strong consistency", p)
		}
		if got := svc.Snapshot(p); got != "total=3" {
			t.Errorf("%v snapshot = %q, want total=3", p, got)
		}
	}
	if rep := svc.Report(); rep.Tau != 0 {
		t.Errorf("strong service τ = %d, want 0", rep.Tau)
	}
}

func TestSimServiceSigmaWorksWithMinorityCorrect(t *testing.T) {
	fp := model.NewFailurePattern(5)
	fp.Crash(3, 0)
	fp.Crash(4, 0)
	fp.Crash(5, 0)
	svc := NewSimService(Config{
		N:           5,
		Consistency: StrongSigma,
		Failures:    fp,
		Sim:         simSeed(11),
	})
	svc.Submit(1, 30, "set a 1")
	svc.Submit(2, 40, "set b 2")
	if !svc.RunUntilConverged(20000) {
		t.Fatal("Ω+Σ service must progress with a correct minority")
	}
	if got := svc.Snapshot(1); got != "a=1,b=2" {
		t.Errorf("snapshot = %q", got)
	}
}

func TestSimServiceStrongBlocksWithMinorityCorrect(t *testing.T) {
	fp := model.NewFailurePattern(5)
	fp.Crash(3, 0)
	fp.Crash(4, 0)
	fp.Crash(5, 0)
	svc := NewSimService(Config{N: 5, Consistency: Strong, Failures: fp, Sim: simSeed(13)})
	svc.Submit(1, 30, "set a 1")
	svc.Run(8000)
	if got := svc.Snapshot(1); got != "" {
		t.Fatalf("majority-quorum service made progress without a majority: %q", got)
	}
}

func TestLiveServiceQuickstart(t *testing.T) {
	svc := NewLiveService(3, Eventual, nil, liveOpts())
	defer svc.Stop()
	svc.Submit(1, "set color green")
	svc.Submit(2, "set shape circle")
	deadline := time.Now().Add(5 * time.Second)
	want := "color=green,shape=circle"
	for time.Now().Before(deadline) {
		if svc.Snapshot(1) == want && svc.Snapshot(3) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("live service did not converge: %q / %q", svc.Snapshot(1), svc.Snapshot(3))
}

func TestLiveServiceRejectsSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("StrongSigma must be rejected live (Σ has no implementation)")
		}
	}()
	NewLiveService(3, StrongSigma, nil, liveOpts())
}

func TestNewSimServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("N=1 must panic")
		}
	}()
	NewSimService(Config{N: 1})
}

func simSeed(seed int64) (o sim.Options) {
	o.Seed = seed
	return o
}

func liveOpts() (o runtime.Options) { return o }

// The deployed stacks as model.Wakers: an Eventual follower has no tick due,
// while the Strong stacks, whose Paxos log is not a Waker, have every tick
// due, so that a live loop keeps ticking them every TickInterval. Each
// layer passes the answer through, with or without retransmission.
func TestStackIdleTicks(t *testing.T) {
	rt := retransmit.Options{Seed: 1}
	for _, c := range []Consistency{Eventual, Strong, StrongSigma} {
		for _, o := range []StackOptions{{}, {Retransmit: &rt}} {
			a := ReplicaStackWith(c, o)(2, 3)
			want := int64(0)
			if c == Eventual {
				want = -1
			}
			if got := model.IdleTicks(a, fd.OmegaValue(1)); got != want {
				t.Errorf("%v stack (retransmit %v): IdleTicks = %d, want %d", c, o.Retransmit != nil, got, want)
			}
		}
	}
}
