package bench

import (
	"repro/internal/sim"
	"repro/internal/sim/adversary"
)

// e14Schedulers names the two starvation targets over the same delay
// support. The order is the table's row order per workload.
func e14Schedulers() []struct {
	name string
	net  sim.NetworkFactory
} {
	return []struct {
		name string
		net  sim.NetworkFactory
	}{
		{"leader-aware", func() sim.NetworkModel { return &adversary.LeaderStarver{Min: 1, Max: 60} }},
		{"quorum-starve", func() sim.NetworkModel { return &adversary.LeaderStarver{Min: 1, Max: 60, StarveQuorum: true} }},
	}
}

// e14Spec decomposes E14 into one cell per (workload, starvation target),
// reusing E12/E13's cell bodies so the workloads are identical by
// construction and the leader-aware rows are directly comparable to E13's.
//
// E14 is the E13 variant the ROADMAP's adversary-axis follow-on
// asked for: the leader-starving schedule against its QUORUM-FOLLOWER
// redirection (adversary.LeaderStarver with StarveQuorum — the ⌈n/2⌉
// lowest-id followers pinned at the bound, the leader spared), on E13's two
// canonical workloads over the identical [1, 60] delay support. The quorum
// mode is aimed at Σ-based baselines, where assembling an unstarved majority
// quorum is the primitive under attack; against the EC stack — whose
// convergence pipeline runs through the leader, not through quorums — it
// measures how much adversarial power is LOST by sparing the leader:
// starving everything around the pipeline's source is not the same as
// starving the source.
func e14Spec(opts Options) spec {
	s := spec{shell: Table{
		ID:     "E14",
		Title:  "Starvation target: current leader vs a quorum of followers",
		Claim:  "starving a quorum transversal of followers (Sigma's attack surface) while sparing the leader is a weaker adversary against the EC stack than starving the leader itself: the promotion pipeline's source outranks its audience",
		Header: []string{"workload", "scheduler", "converged", "converged at", "worst decision latency", "tau"},
		Notes: []string{
			"both schedulers are adversary.LeaderStarver over [1, 60] ticks; quorum-starve sets StarveQuorum, pinning every link touching the ceil(n/2) lowest-id non-leader processes — the smallest set intersecting every majority quorum — and running the leader's links on the ordinary greedy schedule",
			"the quorum mode is the ROADMAP follow-on aimed at Sigma-based baselines: a quorum primitive layered on these runs could never assemble an unstarved quorum, but EC's convergence is leader-routed, so the redirection measures what sparing the leader costs the adversary",
			"workloads and measurements are E13's: broadcast (E9's crash-free n=5 run) under stable delivery, transform (E3's Alg1 over Alg4, n=3) under ORDER convergence over an extended horizon",
			"EC still converges in every cell: both starvation targets are admissible (finite delays, every message delivered)",
		},
	}}
	msgs := 6
	if opts.Quick {
		msgs = 3
	}
	for _, sched := range e14Schedulers() {
		sched := sched
		s.cells = append(s.cells, func() cellOut {
			return schedulerBroadcastCell(opts, sched.name, sched.net, msgs)
		})
	}
	for _, sched := range e14Schedulers() {
		sched := sched
		s.cells = append(s.cells, func() cellOut {
			return e13TransformCell(opts, sched.name, sched.net)
		})
	}
	return s
}
