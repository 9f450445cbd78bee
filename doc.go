// Package repro is the root of a complete Go reproduction of
// "The Weakest Failure Detector for Eventual Consistency"
// (Dubois, Guerraoui, Kuznetsov, Petit, Sens — PODC 2015, arXiv:1505.03469).
//
// The library implements the paper's abstractions (eventual consensus,
// eventual total order broadcast, eventual irrevocable consensus), all seven
// of its algorithms, the generalized CHT reduction of its necessity proof,
// and the strong-consistency baselines it compares against, over a
// deterministic simulator and a live goroutine runtime. The simulator's
// environment is pluggable on both axes. Links (internal/sim's
// NetworkModel): uniform delays, crash-free partitions — two-sided and
// k-sided — that form and heal on a schedule, and jittery asymmetric links
// ship built in; the adversarial engine (internal/sim/adversary) adds lossy
// links with seeded per-link drop rates and burst losses, a
// divergence-maximizing scheduler that greedily starves a rotating victim
// inside admissible delay bounds, and a PROTOCOL-AWARE leader starver that
// reads the run's current Ω output through the kernel's leadership-
// observation hook (sim.LeaderAware, answered from the kernel's fd.Cached
// segments) and pins every link touching the current leader at the bound —
// E13 measures it costing ~10x over both the blind rotation and i.i.d.
// noise on the workload where the blind rotation was not worst-case.
// Failures (model.FaultModel, via sim.Options.Faults): the monotone crash
// pattern generalizes to up/down intervals (adversary.FaultSchedule), with
// the kernel suspending a down process, dropping everything sent to it, and
// restarting it with fresh state — churn as crash+restart pairs; fault
// models merge through model.MergeFaults. Network models stack through
// sim.ComposeNetworks (delays add, delivery needs unanimity), and
// adversary.Composite registers a layered link stack plus a fault schedule
// as ONE preset — "churn-lossy", "hostile", and "hostile-partition", which
// adds a timed partition-and-heal window to the hostile stack. The starver
// can also redirect its target from the leader to a quorum transversal of
// followers (LeaderStarver.StarveQuorum, aimed at Σ-based baselines) — E14
// measures that redirection costing the adversary ~10x on the leader-routed
// transform workload. internal/retransmit restores
// the paper's eventual-delivery assumption end-to-end over those hostile
// environments (ack'd envelopes with per-link contiguous sequence numbers,
// watermark-pruned dedup state bounded by the reordering window, and seeded
// exponential resend), turning loss rate and churn rate into sweepable
// parameters. Named presets ("lossy", "churn-fast", "leader-starve",
// "hostile", ...) are shared by the CLI (cmd/ecsim -net), the examples, and
// the experiment tables. Options.Network takes a NetworkFactory, so every
// kernel owns a private seeded model and options values are safe to share
// across concurrent kernels.
//
// The kernel's hot path is engineered for sweep scale: an inlined 4-ary
// event heap over a reusable slab (no container/heap boxing, no per-event
// allocation), interned broadcast message templates, and failure-detector
// queries memoized per constancy segment (fd.Cached — sound because
// histories are deterministic step functions of time). The CHT reduction —
// the heaviest detector consumer — runs on an interned execution engine
// (internal/cht): states, payloads, messages, and whole configurations map
// to dense int32 IDs, algorithms can opt into a structured stepping fast
// path (cht.StructuredAlgorithm) that skips the per-step decode/encode
// round-trip, and simulation trees grow incrementally across the reduction's
// monotone DAG prefixes (cht.TreeCache) instead of being rebuilt per round.
// The ETOB protocol layer avoids the quadratic costs the transformation
// stacks used to pay: causality graphs are positional with copy-on-write
// snapshot clones, promote extension skips no-op updates, and the ETOB→EC
// First(ℓ) poll resumes its scan instead of re-decoding the sequence per
// tick. On top of it, internal/bench decomposes every experiment into
// independent seeded cells and fans them across a bounded worker pool
// (cmd/bench -parallel) with per-cell timeout isolation (-cell-timeout),
// deterministic cell sharding for multi-machine sweeps (-shard i/n), and
// median-of-N cell timing (-repeat N) to tame single-core noise, with
// rows reassembled deterministically so parallel output is byte-identical
// to serial; cmd/bench -json writes a machine-readable report (schema
// repro-bench/6: per-experiment cell time with its run-to-run spread,
// kernel steps/sec, optional worker-scaling sweep, optional cluster-size
// scaling sweep), and cmd/bench -profile cpu|mem captures pprof profiles of
// any run. The repository benchmark proper — end-to-end and per-layer costs
// of the deployed stack, in and out of the simulator — is the separate
// perfbench/ module.
//
// Cluster size n is a first-class scaling axis. ETOB and EC disseminate as
// the paper's Algorithms 4 and 5 do — every update and promote goes to all n
// processes — and the eventual specs need only eventual receipt, which
// internal/retransmit restores over lossy links. The kernel applies
// broadcasts as one batched heap entry per send expanded at pop instead of n
// immediate inserts, fd.Cached bounds memo state with a per-process LRU over
// segments, and the Paxos/ABD quorum layers count thresholds at insert
// instead of rescanning their maps per delivery. cmd/bench -scalen runs the
// En experiment — the same workload at n in {5..256}, one row per n with
// steps/sec, envelopes/op and bytes/proc — into the report's "scaling_n"
// section. ETOB batches under load: etob.BatchOptions coalesces k pending
// ops into one update(CG) broadcast (flush on depth k or a linger deadline;
// k=1 is bit-for-bit the historical path).
//
// The service plane makes the paper's replicated service deployable: the
// live runtime's plumbing is abstracted behind runtime.Transport (in-process
// ChanTransport, and TCPTransport speaking length-prefixed gob frames over
// per-peer reconnecting connections), internal/node wraps the replica stack —
// retransmit-wrapped ETOB over heartbeat-Ω — as a node with an HTTP API and a
// graceful drain-deregister-flush shutdown, and internal/lb is a front door
// that spreads client sessions across registered replicas by rendezvous
// hashing with health-driven eviction; cmd/ecnode runs either role as an OS
// process (scripts/node_smoke.sh boots a real 3-process cluster in CI). The
// hostile half runs against real sockets too: runtime.FaultTransport wraps
// any Transport with seeded per-link drops, bursts, delays, duplicates,
// reorders, reset bursts, and scriptable partitions — every per-frame
// decision a pure function of (seed, link, frame index), so chaos runs
// reproduce by seed — with presets mirroring the simulator's vocabulary
// ("lossy", "hostile", "hostile-partition", ...; cmd/ecnode -chaos). The
// paths the injector exposes are hardened: capped redial backoff in
// TCPTransport, deadline-bounded retries with full jitter on node HTTP ops,
// a per-backend circuit breaker and retry budget in the front door, and a
// degraded read-only mode where a fully partitioned replica refuses writes
// with 503 + Retry-After while serving staleness-marked reads
// (internal/node's chaos soak pins convergence after heal with zero
// acked-then-lost writes; CI's chaos-smoke job runs it at a pinned seed
// under -race). The whole plane is observable through internal/obs, a
// dependency-free metrics registry (atomic counters, gauges, log-bucketed
// histograms) plus a bounded-ring op-lifecycle tracer: every replica and the
// front door serve Prometheus-text GET /metrics (the same counter names the
// sim kernel registers, so sim and live runs compare by name), GET /trace?op=
// returns one op's causal timeline (submit → batch-flush → broadcast →
// deliver → order-stable), /status reads the same registry the scrape does,
// and the chaos soak cross-checks scraped counters against the runtime
// StepLog ground truth while scripts/metrics_overhead.sh gates the
// registry's hot-path cost at 5%. The
// deterministic kernel stays authoritative: runtime.Options.StepLog records
// every live step's schedule and runtime.Replay re-executes it through fresh
// automata, pinning that both transports run the SAME automaton semantics.
// Resend scheduling in internal/retransmit uses a due-time-ordered 4-ary
// slab heap (Tick touches only overdue envelopes) and a give-up ceiling
// bounds sender state toward permanently crashed receivers while preserving
// at-least-once delivery to any process that ever returns.
//
// The experiment index (which table checks which claim of the paper) is the
// internal/bench package comment; cmd/ecsim, cmd/bench and the examples are
// the runnable entry points. The root package holds the ablation benchmarks
// of the paper's parameters (ablation_bench_test.go) and cross-module
// integration/fuzz tests (integration_test.go).
package repro
