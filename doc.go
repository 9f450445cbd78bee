// Package repro is the root of a Go reproduction of "The Weakest Failure
// Detector for Eventual Consistency" (Dubois, Guerraoui, Kuznetsov, Petit,
// Sens — PODC 2015, arXiv:1505.03469): the paper's abstractions, all seven
// of its algorithms, the generalized CHT reduction of its necessity proof,
// and the strong-consistency baselines it compares against.
//
// # Layers
//
// Every protocol is a model.Automaton. One replica is a stack of automata,
// built in one place (core.ReplicaStackWith), and the same stack runs under
// either executor below it:
//
//	node, lb            HTTP replica process and front door (cmd/ecnode)
//	smr                 replicated state machine over the broadcast below
//	etob | consensus    Alg. 5 ETOB (eventual) | Paxos log (strong)
//	retransmit          ack'd resend: eventual delivery over lossy links
//	sim | runtime       deterministic kernel | live event loop + transport
//
// internal/model defines processes, failure patterns and the automaton
// interface; internal/fd implements failure detectors (Ω, Σ) as history
// oracles; internal/causal is ETOB's causality graph. internal/trace records
// a run's histories and checks the paper's properties against them;
// runtime.Replay re-runs a live run's step log through fresh automata, so
// both executors are held to one semantics. internal/obs is the metrics registry
// and op tracer the node serves; internal/sim/adversary adds lossy links,
// churn and a leader-starving scheduler to the kernel.
//
// # Where the paper lives
//
//	Alg. 4          eventual consensus from Ω          internal/ec
//	Alg. 5          ETOB from Ω                        internal/etob
//	Alg. 1, 2, 6, 7 §3 / App. A transformations        internal/transform
//	Alg. 3, §4      CHT reduction: EC with D ⇒ Ω       internal/cht
//	§1, §7          strong baselines: Paxos log, ABD   internal/consensus, internal/quorum
//
// internal/core is the public API over these (a simulated or live
// replicated service per consistency level). internal/bench regenerates the
// experiment tables E1–E14, each operationalizing one claim of the paper;
// its package comment is the index. cmd/ecsim runs one simulated execution
// and checks it, cmd/bench prints the tables, and examples/ holds runnable
// walk-throughs. The repository benchmark — end-to-end and per-layer costs
// of the deployed stack — is the separate perfbench/ module. The root
// package holds the ablation benchmarks (ablation_bench_test.go) and
// cross-package integration and fuzz tests (integration_test.go).
package repro
