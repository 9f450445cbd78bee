// Package obs is the repo's observability plane: a dependency-free metrics
// registry (atomic counters, gauges, and an HDR-style log-bucketed
// Histogram), a Prometheus text exposition served at
// GET /metrics, and a bounded-ring op-lifecycle tracer served at GET /trace.
//
// The paper's guarantees are all eventual — ETOB-Stability and EC-Agreement
// hold "for some τ" — so operating the system means WATCHING τ converge, not
// just asserting it post-hoc in internal/trace: retransmit pendings draining
// after a partition heals, Ω flap counts settling after churn, batch flushes
// tracking load. This package is the mechanism; internal/core wires it to
// the protocol stack, internal/node and internal/lb mount the endpoints.
//
// # Naming conventions
//
// Prometheus conventions throughout: snake_case, a layer prefix
// (retransmit_, batch_, smr_, etob_, kernel_, transport_, node_, omega_,
// lb_, http_), the _total suffix on counters, bare names for gauges, base
// names for histograms (exposed as summaries; the exposition appends
// quantile samples plus _sum and _count). Canonical names are constants in
// names.go — wiring code never spells a metric name inline.
//
// # Sim/live metric-name parity
//
// The same protocol stack runs under the deterministic simulator and the
// live TCP runtime, and both register the SAME stack-metric names, so a sim
// run and a live cluster are directly comparable, column for column:
//
//	layer       names                                        sim   live
//	retransmit  retransmit_{resends,duplicates,abandoned}_total,
//	            retransmit_{pending_envelopes,dedup_sparse,
//	            dedup_streams}                               yes   yes
//	etob batch  batch_{flushes,full_flushes,linger_flushes,
//	            ops}_total, batch_{target,queued}            yes   yes
//	etob        etob_undelivered_ops                         yes   yes
//	smr         smr_{applied,rebuilds}_total                 yes   yes
//	kernel      kernel_steps_total, kernel_messages_*_total  yes   —
//	transport   transport_*                                  —     yes
//	node/lb/Ω   node_*, lb_*, omega_*, http_*                —     yes
//
// StackNames returns the shared rows; the parity test in internal/core pins
// the table.
//
// # Overhead contract
//
// Metrics must not perturb what they measure. The registry holds that line
// with three rules:
//
//  1. Hot paths touch at most one atomic per event (Counter.Add,
//     Histogram.Record) — never a lock, never an allocation.
//  2. State that lives inside a single-threaded event loop (automaton
//     counters) is NOT instrumented inline. An OnScrape hook snapshots it at
//     scrape time under the loop's own synchronization (one
//     runtime.Proc.Inspect), so the per-event cost in the loop is zero.
//  3. The simulator registers read-at-scrape CounterFuncs over counters the
//     kernel already maintains — a metrics-on sim run executes the identical
//     per-step instruction stream as a metrics-off run.
//
// scripts/metrics_overhead.sh enforces rule 3's consequence in CI: kernel
// ns/op with a registry attached must stay within 5% of the bare kernel.
// internal/core's TestRegisterSimMetricsMatchesStack pins the other half:
// the same seed with and without a registry takes the same steps, sends the
// same messages and ends in the same replica states.
package obs
