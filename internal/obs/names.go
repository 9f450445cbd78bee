package obs

// Canonical metric names. Both stacks — the deterministic simulator and the
// live TCP runtime — register the SAME names for the layers they share, so a
// dashboard (or a test) can compare a sim run against a live cluster without
// a translation table. The split is:
//
//   - Stack metrics (retransmit_*, batch_*, smr_*, etob_*) describe the
//     protocol stack and exist in both worlds. StackNames lists them; the
//     parity test in internal/core pins that sim- and live-collected
//     registries expose the identical stack-name set.
//   - Kernel metrics (kernel_*) exist only under the simulator.
//   - Transport, node, lb, and omega metrics exist only in the live runtime
//     (the simulator has no TCP frames, HTTP handlers, or heartbeat
//     detector; its Ω is the kernel's failure-detector oracle).
//
// Naming follows the Prometheus conventions: snake_case, a layer prefix,
// _total suffix on counters, bare names for gauges, and base names for
// summaries (the exposition appends _sum/_count).
const (
	// Stack: retransmission layer (internal/retransmit).
	MetricRetransmitResends    = "retransmit_resends_total"
	MetricRetransmitDuplicates = "retransmit_duplicates_total"
	MetricRetransmitAbandoned  = "retransmit_abandoned_total"
	MetricRetransmitPending    = "retransmit_pending_envelopes"
	MetricRetransmitSparse     = "retransmit_dedup_sparse"
	MetricRetransmitStreams    = "retransmit_dedup_streams"

	// Stack: ETOB broadcast batching (internal/etob).
	MetricBatchFlushes       = "batch_flushes_total"
	MetricBatchFullFlushes   = "batch_full_flushes_total"
	MetricBatchLingerFlushes = "batch_linger_flushes_total"
	MetricBatchOps           = "batch_ops_total"
	MetricBatchTarget        = "batch_target"
	MetricBatchQueued        = "batch_queued"

	// Stack: ETOB delivery (internal/etob): ops whose dependencies have not
	// yet all been delivered — the unresolved-dep stall depth.
	MetricEtobUndelivered = "etob_undelivered_ops"

	// Stack: replicated state machine (internal/smr).
	MetricSMRApplied  = "smr_applied_total"
	MetricSMRRebuilds = "smr_rebuilds_total"

	// Simulator kernel (internal/sim).
	MetricKernelSteps   = "kernel_steps_total"
	MetricKernelSent    = "kernel_messages_sent_total"
	MetricKernelDropped = "kernel_messages_dropped_total"
	MetricKernelLost    = "kernel_messages_lost_total"

	// Live transport (internal/runtime TCPTransport + node fault layer).
	MetricTransportDropped   = "transport_frames_dropped_total"
	MetricTransportInboxDrop = "transport_inbox_dropped_total"
	MetricTransportFlushes   = "transport_flushes_total"
	MetricTransportCoalesced = "transport_frames_coalesced_total"
	MetricTransportRedials   = "transport_redials_total"
	MetricTransportInjected  = "transport_faults_injected_total"

	// Live replica node (internal/node).
	MetricNodeAccepted = "node_accepted_total"
	MetricNodeRejected = "node_rejected_total"
	MetricNodeDegraded = "node_degraded"
	MetricHTTPLatency  = "http_request_duration_us"

	// Heartbeat Ω (internal/runtime Proc).
	MetricOmegaFlaps  = "omega_flaps_total"
	MetricOmegaLeader = "omega_leader"

	// Front door (internal/lb).
	MetricLBFailovers     = "lb_failovers_total"
	MetricLBRetriesDenied = "lb_retries_denied_total"
	MetricLBDeclined      = "lb_declined_total"
	MetricLBHealthy       = "lb_healthy_replicas"
	MetricLBBreakerOpen   = "lb_breaker_open"
)

// StackNames returns the metric names shared by the sim and live stacks —
// the parity set. Order is fixed (grouped by layer) for readable diffs.
func StackNames() []string {
	return []string{
		MetricRetransmitResends,
		MetricRetransmitDuplicates,
		MetricRetransmitAbandoned,
		MetricRetransmitPending,
		MetricRetransmitSparse,
		MetricRetransmitStreams,
		MetricBatchFlushes,
		MetricBatchFullFlushes,
		MetricBatchLingerFlushes,
		MetricBatchOps,
		MetricBatchTarget,
		MetricBatchQueued,
		MetricEtobUndelivered,
		MetricSMRApplied,
		MetricSMRRebuilds,
	}
}
