// Package core is the top-level API of this reproduction: an eventually
// consistent replicated service — the object the paper proves needs exactly
// Ω — plus the strongly consistent variant (needing Ω+Σ or a correct
// majority) for comparison.
//
// A Service replicates a deterministic state machine over n processes:
//
//   - Eventual: Algorithm 5 (ETOB from Ω). Works in ANY environment; replicas
//     may diverge while Ω misbehaves and converge after it stabilizes;
//     commands commit in 2 communication steps under a stable leader.
//   - Strong: a Paxos log (majority quorums). Never diverges, needs a correct
//     majority, commits in 3 communication steps.
//   - StrongSigma: the Paxos log with Σ quorums (detector Ω+Σ). Never
//     diverges and works in any environment — Σ being exactly the extra
//     information, which is the paper's headline gap.
//
// Services run on the deterministic simulator (NewSimService) for
// experiments and property checking, or live on goroutines with a heartbeat
// Ω (NewLiveService) for the examples.
package core

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/trace"
)

// Consistency selects the replication protocol.
type Consistency int

// Supported consistency levels.
const (
	// Eventual is the paper's ETOB-based replication (Ω only).
	Eventual Consistency = iota + 1
	// Strong is Paxos with majority quorums (Ω + correct majority).
	Strong
	// StrongSigma is Paxos with Σ quorums (Ω+Σ, any environment).
	StrongSigma
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case Eventual:
		return "eventual"
	case Strong:
		return "strong"
	case StrongSigma:
		return "strong+sigma"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// PreBehavior is Ω's adversarial output before stabilization.
type PreBehavior int

// Pre-stabilization behaviors of the Ω oracle.
const (
	// PreStable: the leader is stable from time 0.
	PreStable PreBehavior = iota + 1
	// PreSelfTrust: every process trusts itself (maximal divergence).
	PreSelfTrust
	// PreSplit: two leader camps (split brain).
	PreSplit
	// PreRotating: leadership churns through Π.
	PreRotating
)

// OmegaSpec describes the Ω history of a simulated run.
type OmegaSpec struct {
	// Leader is the eventual leader; NoProc means the smallest correct process.
	Leader model.ProcID
	// Stabilization is τ_Ω, the time Ω stabilizes (ignored for PreStable).
	Stabilization model.Time
	// Pre selects the pre-stabilization behavior (default PreStable).
	Pre PreBehavior
	// RotationPeriod applies to PreRotating (default 50).
	RotationPeriod model.Time
	// SplitA and SplitB are the camp leaders for PreSplit (defaults: the two
	// smallest correct processes, assigned so that each camp contains its
	// own leader).
	SplitA, SplitB model.ProcID
}

// Build realizes the spec against a failure pattern.
func (s OmegaSpec) Build(fp *model.FailurePattern) *fd.Omega {
	leader := s.Leader
	if leader == model.NoProc {
		leader = fp.MinCorrect()
	}
	switch s.Pre {
	case PreSelfTrust:
		return fd.NewOmegaEventual(fp, leader, s.Stabilization)
	case PreSplit:
		a, b := s.SplitA, s.SplitB
		if a == model.NoProc || b == model.NoProc {
			// Even camp's leader must be even, odd camp's odd, so both camps
			// self-sustain.
			a, b = 2, 1
		}
		return fd.NewOmegaSplit(fp, a, b, leader, s.Stabilization)
	case PreRotating:
		period := s.RotationPeriod
		if period <= 0 {
			period = 50
		}
		return fd.NewOmegaRotating(fp, leader, s.Stabilization, period)
	default:
		return fd.NewOmegaStable(fp, leader)
	}
}

// StackOptions carries the optional layers of a replica stack (see
// ReplicaStackWith).
type StackOptions struct {
	// Machine is the replicated state machine (nil = KV store).
	Machine smr.MachineFactory
	// Retransmit wraps the stack in the retransmission layer (nil = bare).
	Retransmit *retransmit.Options
}

// ReplicaStackWith builds the full automaton stack of ONE service replica for
// a consistency level: the broadcast protocol (ETOB for Eventual, a Paxos log
// for the strong variants) driving the replicated machine, optionally wrapped
// in the retransmission layer. This is the single definition of "a replica"
// shared by every way of running one — the deterministic kernel
// (NewSimService), the in-process live cluster (NewLiveService), and the
// deployable node (internal/node) all feed the SAME factory to their runtime,
// which is what makes cross-runtime conformance (runtime.Replay) meaningful.
//
// Note the stack does not choose the failure detector: StrongSigma replicas
// additionally require a Σ oracle next to Ω, which only the simulator can
// provide (see NewLiveService).
func ReplicaStackWith(c Consistency, o StackOptions) model.AutomatonFactory {
	if o.Machine == nil {
		o.Machine = smr.KVFactory
	}
	var broadcast model.AutomatonFactory
	switch c {
	case Eventual, 0:
		broadcast = etob.Factory()
	case Strong:
		broadcast = consensus.LogFactory(consensus.MajorityQuorums)
	case StrongSigma:
		broadcast = consensus.LogFactory(consensus.SigmaQuorums)
	default:
		panic(fmt.Sprintf("core: unknown consistency %v", c))
	}
	factory := smr.ReplicaFactory(broadcast, o.Machine)
	if o.Retransmit != nil {
		factory = retransmit.Wrap(factory, *o.Retransmit)
	}
	return factory
}

// UnwrapReplica returns the state-machine replica inside a stack automaton,
// peeling the retransmission wrapper when present.
func UnwrapReplica(a model.Automaton) *smr.Replica {
	if w, ok := a.(*retransmit.Automaton); ok {
		a = w.Inner()
	}
	return a.(*smr.Replica)
}

// Config configures a simulated service.
type Config struct {
	// N is the number of replicas (>= 2).
	N int
	// Consistency selects the protocol (default Eventual).
	Consistency Consistency
	// Machine is the replicated state machine (default KV store).
	Machine smr.MachineFactory
	// Failures is the failure pattern (default failure-free).
	Failures *model.FailurePattern
	// Omega is the Ω history spec (default stable smallest-correct leader).
	Omega OmegaSpec
	// Sim tunes the kernel (Seed, delays, tick interval, network model,
	// fault schedule).
	Sim sim.Options
	// Retransmit wraps every replica in the retransmission layer
	// (internal/retransmit.Wrap). Required for environments that genuinely
	// lose messages — lossy networks (internal/sim/adversary.Lossy) and
	// churn (Sim.Faults with restarts) — where the paper's eventual-delivery
	// assumption must be restored end-to-end for convergence to hold.
	Retransmit bool
}

// SimService is a replicated service running on the deterministic simulator.
type SimService struct {
	cfg    Config
	kernel *sim.Kernel
	rec    *trace.Recorder
	det    fd.Detector
}

// NewSimService builds a simulated service.
func NewSimService(cfg Config) *SimService {
	if cfg.N < 2 {
		panic("core: need at least 2 replicas")
	}
	if cfg.Consistency == 0 {
		cfg.Consistency = Eventual
	}
	if cfg.Machine == nil {
		cfg.Machine = smr.KVFactory
	}
	if cfg.Failures == nil {
		cfg.Failures = model.NewFailurePattern(cfg.N)
	}
	omega := cfg.Omega.Build(cfg.Failures)
	var det fd.Detector = omega
	if cfg.Consistency == StrongSigma {
		det = fd.NewOmegaSigma(omega, fd.NewSigma(cfg.Failures, cfg.Omega.Stabilization))
	}
	var rt *retransmit.Options
	if cfg.Retransmit {
		rt = &retransmit.Options{Seed: cfg.Sim.Seed}
	}
	rec := trace.NewRecorder(cfg.N)
	factory := ReplicaStackWith(cfg.Consistency, StackOptions{Machine: cfg.Machine, Retransmit: rt})
	k := sim.New(cfg.Failures, det, factory, cfg.Sim)
	k.SetObserver(rec)
	return &SimService{cfg: cfg, kernel: k, rec: rec, det: det}
}

// Submit schedules command cmd at replica p at time at.
func (s *SimService) Submit(p model.ProcID, at model.Time, cmd string) {
	s.kernel.ScheduleInput(p, at, smr.Command{Cmd: cmd})
}

// Run advances the simulation to the given time.
func (s *SimService) Run(until model.Time) { s.kernel.Run(until) }

// RunUntilConverged runs until every correct replica has applied all the
// given command-carrying message IDs (see Recorder().Broadcasts() for IDs),
// or maxTime passes. It returns whether convergence was reached.
func (s *SimService) RunUntilConverged(maxTime model.Time) bool {
	correct := s.cfg.Failures.Correct()
	var want []string
	converged := func(*sim.Kernel) bool {
		want = want[:0]
		for _, b := range s.rec.Broadcasts() {
			want = append(want, b.ID)
		}
		if len(want) == 0 {
			return false
		}
		if !s.rec.AllDelivered(correct, want) {
			return false
		}
		// Identical final sequences everywhere.
		ref := s.rec.FinalSeq(correct[0])
		for _, p := range correct[1:] {
			got := s.rec.FinalSeq(p)
			if len(got) != len(ref) {
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	s.kernel.RunUntil(maxTime, converged)
	return converged(s.kernel)
}

// Snapshot returns replica p's current machine snapshot.
func (s *SimService) Snapshot(p model.ProcID) string {
	return s.replica(p).Snapshot()
}

// Rebuilds returns how many times replica p replayed from scratch (eventual
// consistency's divergence repair; always 0 under strong consistency).
func (s *SimService) Rebuilds(p model.ProcID) int {
	return s.replica(p).Rebuilds()
}

// replica returns p's state-machine replica, unwrapping the retransmission
// layer when Config.Retransmit put one around it.
func (s *SimService) replica(p model.ProcID) *smr.Replica {
	return UnwrapReplica(s.kernel.Automaton(p))
}

// Report property-checks the run against the (E)TOB specification.
func (s *SimService) Report() trace.ETOBReport {
	return trace.CheckETOB(s.rec, s.cfg.Failures.Correct(), trace.CheckOptions{})
}

// Recorder exposes the run's recorded histories.
func (s *SimService) Recorder() *trace.Recorder { return s.rec }

// Kernel exposes the underlying kernel (for advanced scheduling).
func (s *SimService) Kernel() *sim.Kernel { return s.kernel }

// LiveService is a replicated service on the goroutine runtime with the
// heartbeat Ω.
type LiveService struct {
	cluster *runtime.Cluster
	rec     *trace.Recorder
}

// NewLiveService starts n live replicas with the given consistency and
// machine (nil machine = KV store). Σ is an oracle and has no live
// implementation, so StrongSigma is rejected here — which is, precisely,
// the paper's point.
func NewLiveService(n int, c Consistency, machine smr.MachineFactory, opts runtime.Options) *LiveService {
	if c == StrongSigma {
		panic(fmt.Sprintf("core: consistency %v not available live (Σ is an oracle)", c))
	}
	rec := trace.NewRecorder(n)
	opts.Observer = rec
	cluster := runtime.NewCluster(n, ReplicaStackWith(c, StackOptions{Machine: machine}), opts)
	return &LiveService{cluster: cluster, rec: rec}
}

// Submit sends a command to replica p.
func (s *LiveService) Submit(p model.ProcID, cmd string) {
	s.cluster.Submit(p, smr.Command{Cmd: cmd})
}

// Snapshot returns replica p's snapshot ("" if p crashed).
func (s *LiveService) Snapshot(p model.ProcID) string {
	var snap string
	s.cluster.Inspect(p, func(a model.Automaton) { snap = a.(*smr.Replica).Snapshot() })
	return snap
}

// Crash kills replica p.
func (s *LiveService) Crash(p model.ProcID) { s.cluster.Crash(p) }

// Recorder exposes the run's recorded histories.
func (s *LiveService) Recorder() *trace.Recorder { return s.rec }

// Stop shuts the cluster down.
func (s *LiveService) Stop() { s.cluster.Stop() }
