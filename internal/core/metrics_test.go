package core

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/sim/adversary"
)

// lossyService builds the deepest sim stack — retransmission over a lossy
// network — so every layer CollectStackMetrics knows about is present and
// exercised.
func lossyService(seed int64) *SimService {
	o := simSeed(seed)
	o.Network = func() sim.NetworkModel { return &adversary.Lossy{Drop: 0.25, Burst: 3} }
	return NewSimService(Config{
		N:          3,
		Retransmit: true,
		Sim:        o,
	})
}

// TestRegisterSimMetricsMatchesStack pins that a sim-collected registry (a)
// exposes the FULL parity set obs.StackNames plus the kernel counters, and
// (b) reports the same numbers the stack's own accessors do — the ground
// truth the live /metrics cross-check in internal/node relies on. It also
// pins (c) that observation never perturbs a run: the same seed without a
// registry takes the same steps, sends the same messages and ends in the
// same replica states.
func TestRegisterSimMetricsMatchesStack(t *testing.T) {
	run := func(reg *obs.Registry) *SimService {
		svc := lossyService(41)
		if reg != nil {
			RegisterSimMetrics(reg, svc.Kernel(), 1)
		}
		for i := 0; i < 8; i++ {
			svc.Submit(model.ProcID(1+i%3), model.Time(30+7*i), fmt.Sprintf("set k%d v%d", i, i))
		}
		if !svc.RunUntilConverged(60000) {
			t.Fatal("lossy service did not converge")
		}
		return svc
	}
	reg := obs.NewRegistry()
	svc := run(reg)
	reg.Collect()

	bare := run(nil)
	if got, want := svc.Kernel().Steps(), bare.Kernel().Steps(); got != want {
		t.Errorf("observed run took %d steps, unobserved %d", got, want)
	}
	if got, want := svc.Kernel().MessagesSent(), bare.Kernel().MessagesSent(); got != want {
		t.Errorf("observed run sent %d messages, unobserved %d", got, want)
	}
	for _, p := range model.Procs(3) {
		if got, want := svc.Snapshot(p), bare.Snapshot(p); got != want {
			t.Errorf("p%d final snapshot %q observed, %q unobserved", p, got, want)
		}
	}

	names := make(map[string]bool)
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, want := range obs.StackNames() {
		if !names[want] {
			t.Errorf("sim registry missing stack metric %s", want)
		}
	}
	for _, want := range []string{obs.MetricKernelSteps, obs.MetricKernelSent, obs.MetricKernelDropped, obs.MetricKernelLost} {
		if !names[want] {
			t.Errorf("sim registry missing kernel metric %s", want)
		}
	}

	a := svc.Kernel().Automaton(1)
	w, ok := a.(*retransmit.Automaton)
	if !ok {
		t.Fatalf("stack root is %T, want *retransmit.Automaton", a)
	}
	rep := UnwrapReplica(a)
	e, ok := rep.Inner().(*etob.Automaton)
	if !ok {
		t.Fatalf("replica wraps %T, want *etob.Automaton", rep.Inner())
	}
	checks := []struct {
		name string
		want int64
	}{
		{obs.MetricRetransmitResends, w.Resends()},
		{obs.MetricRetransmitDuplicates, w.Duplicates()},
		{obs.MetricRetransmitAbandoned, w.Abandoned()},
		{obs.MetricRetransmitPending, int64(w.PendingEnvelopes())},
		{obs.MetricRetransmitRTO, int64(w.LearnedRTO())},
		{obs.MetricSMRApplied, int64(rep.AppliedCount())},
		{obs.MetricSMRRebuilds, int64(rep.Rebuilds())},
		{obs.MetricEtobPromotesSent, e.PromotesSent()},
		{obs.MetricKernelSteps, svc.Kernel().Steps()},
		{obs.MetricKernelSent, svc.Kernel().MessagesSent()},
		{obs.MetricKernelLost, svc.Kernel().MessagesLost()},
	}
	for _, c := range checks {
		if got := reg.Value(c.name); got != c.want {
			t.Errorf("%s = %d, want %d (stack accessor)", c.name, got, c.want)
		}
	}
	// The run must have actually exercised the interesting counters, or the
	// equalities above are vacuous.
	if reg.Value(obs.MetricRetransmitResends) == 0 {
		t.Error("lossy run produced no resends; parity check is vacuous")
	}
	if reg.Value(obs.MetricEtobPromotesSent) == 0 {
		t.Error("leader p1 sent no promotes; parity check is vacuous")
	}
	if rto := reg.Value(obs.MetricRetransmitRTO); rto < 3 || rto > 48 {
		t.Errorf("retransmit_rto_ticks = %d, want within the default [RTO, MaxRTO] = [3, 48]", rto)
	}
	if reg.Value(obs.MetricSMRApplied) != 8 {
		t.Errorf("smr_applied_total = %d, want 8", reg.Value(obs.MetricSMRApplied))
	}
}

// TestCollectStackMetricsBareStack pins the missing-layer contract: a stack
// built without retransmission still registers the full parity set, with
// zeros where the layer is absent — a scrape never serves a partial name set.
func TestCollectStackMetricsBareStack(t *testing.T) {
	svc := NewSimService(Config{N: 2, Sim: simSeed(3)})
	svc.Submit(1, 30, "set a 1")
	if !svc.RunUntilConverged(10000) {
		t.Fatal("bare service did not converge")
	}
	reg := obs.NewRegistry()
	CollectStackMetrics(reg, svc.Kernel().Automaton(1))
	names := make(map[string]bool)
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, want := range obs.StackNames() {
		if !names[want] {
			t.Errorf("bare-stack registry missing %s", want)
		}
	}
	if got := reg.Value(obs.MetricRetransmitResends); got != 0 {
		t.Errorf("unwrapped stack reports resends = %d, want 0", got)
	}
	if got := reg.Value(obs.MetricRetransmitRTO); got != 0 {
		t.Errorf("unwrapped stack reports retransmit_rto_ticks = %d, want 0", got)
	}
	if got := reg.Value(obs.MetricSMRApplied); got != 1 {
		t.Errorf("smr_applied_total = %d, want 1", got)
	}
}

// benchServiceRun is one fixed replicated-service workload: 6 commands over
// 3 replicas, run to a fixed horizon. The metrics-on variant adds exactly
// what a live scrape adds — registry construction, registration, one
// Collect, one exposition write — so the On/Off delta IS the observability
// overhead scripts/metrics_overhead.sh bounds at 5%.
func benchServiceRun(b *testing.B, metrics bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := NewSimService(Config{
			N:          3,
			Retransmit: true,
			Sim:        simSeed(17),
		})
		var reg *obs.Registry
		if metrics {
			reg = obs.NewRegistry()
			RegisterSimMetrics(reg, svc.Kernel(), 1)
		}
		for j := 0; j < 6; j++ {
			svc.Submit(model.ProcID(1+j%3), model.Time(30+5*j), fmt.Sprintf("set k%d v", j))
		}
		svc.Run(4000)
		if svc.Kernel().Steps() == 0 {
			b.Fatal("run did nothing")
		}
		if metrics {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkKernelMetricsOff(b *testing.B) { benchServiceRun(b, false) }
func BenchmarkKernelMetricsOn(b *testing.B)  { benchServiceRun(b, true) }
