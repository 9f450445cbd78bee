package core

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/smr"
)

// This file wires the protocol stack to the observability plane. The stack's
// counters live inside automata that run in a single-threaded context — the
// kernel's step loop in the simulator, runtime.Proc's event loop live — so
// they cannot be read by a scraping goroutine directly. CollectStackMetrics
// is the one snapshot function both worlds share: the node calls it from an
// OnScrape hook inside Proc.Inspect, a sim harness calls it between Run
// calls. Because both go through the same function, sim and live registries
// expose the identical stack-metric names (the parity the metric-name test
// pins), and /status can be served off the registry instead of hand-collected
// struct fields.

// CollectStackMetrics snapshots one replica-stack automaton's counters into
// reg under the canonical obs.StackNames. The caller must hold whatever
// synchronization the automaton requires (Proc.Inspect live; not-running in
// the simulator). Layers the stack was built without (no retransmission
// wrapper) register zeros, so a scrape always serves the full
// parity set.
func CollectStackMetrics(reg *obs.Registry, a model.Automaton) {
	var (
		resends, dupes, abandoned     int64
		pending, sparse, streams, rto int
	)
	if w, ok := a.(*retransmit.Automaton); ok {
		resends, dupes, abandoned = w.Resends(), w.Duplicates(), w.Abandoned()
		pending, sparse, streams, rto = w.PendingEnvelopes(), w.DedupSparse(), w.DedupStreams(), w.LearnedRTO()
		a = w.Inner()
	}
	reg.Counter(obs.MetricRetransmitResends).Set(resends)
	reg.Counter(obs.MetricRetransmitDuplicates).Set(dupes)
	reg.Counter(obs.MetricRetransmitAbandoned).Set(abandoned)
	reg.Gauge(obs.MetricRetransmitPending).Set(int64(pending))
	reg.Gauge(obs.MetricRetransmitSparse).Set(int64(sparse))
	reg.Gauge(obs.MetricRetransmitStreams).Set(int64(streams))
	reg.Gauge(obs.MetricRetransmitRTO).Set(int64(rto))

	var applied, rebuilds int
	var inner model.Automaton
	if rep, ok := a.(*smr.Replica); ok {
		applied, rebuilds = rep.AppliedCount(), rep.Rebuilds()
		inner = rep.Inner()
	} else {
		inner = a
	}
	reg.Counter(obs.MetricSMRApplied).Set(int64(applied))
	reg.Counter(obs.MetricSMRRebuilds).Set(int64(rebuilds))

	var undelivered int
	if u, ok := inner.(interface{ Undelivered() int }); ok && inner != nil {
		undelivered = u.Undelivered()
	}
	reg.Gauge(obs.MetricEtobUndelivered).Set(int64(undelivered))
	var promotes int64
	if e, ok := inner.(interface{ PromotesSent() int64 }); ok && inner != nil {
		promotes = e.PromotesSent()
	}
	reg.Counter(obs.MetricEtobPromotesSent).Set(promotes)
}

// RegisterSimMetrics exposes a simulated replica's stack counters plus the
// kernel's run counters on reg: the kernel registers read-at-scrape
// functions, and an OnScrape hook snapshots p's stack via
// CollectStackMetrics. Scrape between Run calls — the kernel is
// single-threaded and holds no locks while stepping.
func RegisterSimMetrics(reg *obs.Registry, k *sim.Kernel, p model.ProcID) {
	k.RegisterMetrics(reg)
	reg.OnScrape(func() { CollectStackMetrics(reg, k.Automaton(p)) })
}
