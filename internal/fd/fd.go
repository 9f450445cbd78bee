// Package fd implements failure detectors as history oracles, exactly as the
// paper defines them (§2): a failure detector D with range R maps a failure
// pattern F to a set of histories H : Π × N → R; an oracle here realizes one
// such history. Protocol code queries the oracle through model.Context.FD().
//
// Provided detectors:
//
//   - Ω  (Omega): the eventual leader detector — eventually the same correct
//     process is output at every correct process. Variants differ in their
//     (adversarial) behavior before stabilization.
//   - Σ  (Sigma): the quorum detector — any two output quorums intersect, and
//     eventually all quorums output at correct processes contain only correct
//     processes.
//   - P  (Perfect): always suspects exactly the crashed processes.
//   - Ω+Σ (OmegaSigma): the weakest detector for (strong) consistency in any
//     environment, used by the strong baselines.
//
// Oracles read the failure pattern — they model *information about failures*,
// not an implementation. A message-passing implementation of Ω (heartbeats
// under partial synchrony) lives in internal/runtime.
//
// Every history here is piecewise constant with O(1) structure, so a query
// costs O(1) for Ω and Σ (OmegaUp: one liveness scan) and allocates nothing
// except P's suspect set: Σ and Ω+Σ box their few values at construction.
// The kernel therefore reads a detector directly at every step. The failure
// pattern must be complete when a detector is built over it.
package fd

import (
	"fmt"

	"repro/internal/model"
)

// Detector is a single failure-detector history: Value(p, t) is H(p, t),
// the value process p's module outputs at time t.
type Detector interface {
	// Name identifies the detector class for logs and tables ("Omega", ...).
	Name() string
	// Value returns H(p, t). Implementations must be deterministic and
	// side-effect free: the CHT reduction samples them repeatedly. Callers
	// must treat the value as read-only, since a history may return one
	// value (a quorum slice, say) to every query and every kernel.
	Value(p model.ProcID, t model.Time) any
}

// OmegaValue is the range of Ω: the identifier of the current leader.
type OmegaValue = model.ProcID

// SigmaValue is the range of Σ: a quorum of processes, sorted by ID.
type SigmaValue []model.ProcID

// SuspectValue is the range of P: the set of currently suspected
// processes, sorted by ID.
type SuspectValue []model.ProcID

// OmegaSigmaValue is the range of the composite detector Ω+Σ.
type OmegaSigmaValue struct {
	Leader model.ProcID
	Quorum SigmaValue
}

// ---------------------------------------------------------------------------
// Ω — eventual leader
// ---------------------------------------------------------------------------

// Omega is an Ω history: before StabTime it outputs whatever the adversarial
// schedule Pre dictates; from StabTime on it outputs the eventual leader at
// every process. The eventual leader must be correct in the failure pattern.
type Omega struct {
	fp     *model.FailurePattern
	leader model.ProcID
	stab   model.Time
	pre    func(p model.ProcID, t model.Time) model.ProcID
}

var _ Detector = (*Omega)(nil)

// NewOmegaStable returns an Ω history that outputs the same correct leader at
// every process from time 0 — the regime in which Algorithm 5 implements
// *strong* total order broadcast (§5, property 2).
func NewOmegaStable(fp *model.FailurePattern, leader model.ProcID) *Omega {
	return newOmega(fp, leader, 0, nil)
}

// NewOmegaEventual returns an Ω history that stabilizes on the given leader
// at stab. Before stab, every process trusts itself (a classic divergence
// scenario: every process believes it is the leader — maximal disagreement).
func NewOmegaEventual(fp *model.FailurePattern, leader model.ProcID, stab model.Time) *Omega {
	return newOmega(fp, leader, stab,
		func(p model.ProcID, _ model.Time) model.ProcID { return p })
}

// NewOmegaRotating returns an Ω history that, before stab, rotates the
// reported leader through Π with the given period (all processes agree on the
// rotating leader, but it keeps changing — leadership churn), then stabilizes.
func NewOmegaRotating(fp *model.FailurePattern, leader model.ProcID, stab, period model.Time) *Omega {
	if period <= 0 {
		period = 1
	}
	n := fp.N()
	return newOmega(fp, leader, stab, func(_ model.ProcID, t model.Time) model.ProcID {
		return model.ProcID(int(t/period)%n + 1)
	})
}

// NewOmegaSplit returns an Ω history that, before stab, partitions processes
// into two camps each trusting a different leader (the "partition period" of
// §5: disagreement on the leader), then stabilizes on leader.
func NewOmegaSplit(fp *model.FailurePattern, leaderA, leaderB, leader model.ProcID, stab model.Time) *Omega {
	return newOmega(fp, leader, stab, func(p model.ProcID, _ model.Time) model.ProcID {
		if int(p)%2 == 0 {
			return leaderA
		}
		return leaderB
	})
}

func newOmega(fp *model.FailurePattern, leader model.ProcID, stab model.Time,
	pre func(model.ProcID, model.Time) model.ProcID) *Omega {
	if !fp.IsCorrect(leader) {
		panic(fmt.Sprintf("fd: eventual leader %v is not correct in %v", leader, fp))
	}
	if stab < 0 {
		panic("fd: stabilization time must be >= 0")
	}
	return &Omega{fp: fp, leader: leader, stab: stab, pre: pre}
}

// Name implements Detector.
func (o *Omega) Name() string { return "Omega" }

// Value implements Detector.
func (o *Omega) Value(p model.ProcID, t model.Time) any { return o.leaderAt(p, t) }

func (o *Omega) leaderAt(p model.ProcID, t model.Time) model.ProcID {
	if t >= o.stab || o.pre == nil {
		return o.leader
	}
	return o.pre(p, t)
}

// StabTime returns the time from which the output is the stable leader.
func (o *Omega) StabTime() model.Time { return o.stab }

// Leader returns the eventual leader.
func (o *Omega) Leader() model.ProcID { return o.leader }

// ---------------------------------------------------------------------------
// Σ — quorums
// ---------------------------------------------------------------------------

// Sigma is a Σ history: before its stabilization time every process's quorum
// is Π (which intersects everything); afterwards it is correct(F). Both
// phases pairwise intersect (correct(F) ≠ ∅), and eventually quorums contain
// only correct processes — the Σ specification of [DFG10] in any environment.
type Sigma struct {
	stab   model.Time
	phases [2]any // SigmaValue Π, then correct(F), boxed once
}

var _ Detector = (*Sigma)(nil)

// NewSigma returns a Σ history stabilizing at stab.
func NewSigma(fp *model.FailurePattern, stab model.Time) *Sigma {
	return &Sigma{stab: stab, phases: [2]any{SigmaValue(model.Procs(fp.N())), SigmaValue(fp.Correct())}}
}

// Name implements Detector.
func (s *Sigma) Name() string { return "Sigma" }

// Value implements Detector.
func (s *Sigma) Value(_ model.ProcID, t model.Time) any { return s.phases[s.phase(t)] }

// phase is 0 before stabilization and 1 from it on.
func (s *Sigma) phase(t model.Time) int {
	if t < s.stab {
		return 0
	}
	return 1
}

// ---------------------------------------------------------------------------
// P — perfect
// ---------------------------------------------------------------------------

// Perfect is the perfect detector P: at any time it suspects exactly the
// processes crashed so far (strong completeness + strong accuracy).
type Perfect struct {
	fp *model.FailurePattern
}

var _ Detector = (*Perfect)(nil)

// NewPerfect returns a P history for fp.
func NewPerfect(fp *model.FailurePattern) *Perfect { return &Perfect{fp: fp} }

// Name implements Detector.
func (d *Perfect) Name() string { return "P" }

// Value implements Detector.
func (d *Perfect) Value(_ model.ProcID, t model.Time) any {
	return crashedBy(d.fp, t)
}

// crashedBy returns the processes crashed by t, in ascending order.
func crashedBy(fp *model.FailurePattern, t model.Time) SuspectValue {
	out := make(SuspectValue, 0, fp.N())
	for q := model.ProcID(1); int(q) <= fp.N(); q++ {
		if fp.Crashed(q, t) {
			out = append(out, q)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Ω+Σ — composite
// ---------------------------------------------------------------------------

// OmegaSigma combines an Ω history and a Σ history into the detector whose
// range is pairs — the weakest failure detector for (strong) consistency in
// any environment. The paper's headline: eventual consistency needs only the
// Ω half.
type OmegaSigma struct {
	O *Omega
	S *Sigma
	// pairs holds every value the pair can take, boxed once at construction:
	// pairs[Σ phase][leader] for the leaders 0..n.
	pairs [2][]any
}

var _ Detector = (*OmegaSigma)(nil)

// NewOmegaSigma combines the two histories.
func NewOmegaSigma(o *Omega, s *Sigma) *OmegaSigma {
	d := &OmegaSigma{O: o, S: s}
	for ph := range d.pairs {
		d.pairs[ph] = make([]any, o.fp.N()+1)
		for l := range d.pairs[ph] {
			d.pairs[ph][l] = OmegaSigmaValue{Leader: model.ProcID(l), Quorum: s.phases[ph].(SigmaValue)}
		}
	}
	return d
}

// Name implements Detector.
func (d *OmegaSigma) Name() string { return "Omega+Sigma" }

// Value implements Detector.
func (d *OmegaSigma) Value(p model.ProcID, t model.Time) any {
	ph, l := d.S.phase(t), d.O.leaderAt(p, t)
	if l < 0 || int(l) >= len(d.pairs[ph]) { // a split camp led from outside Π
		return OmegaSigmaValue{Leader: l, Quorum: d.S.phases[ph].(SigmaValue)}
	}
	return d.pairs[ph][l]
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// LeaderOf extracts the Ω component from a detector value that is either an
// OmegaValue or an OmegaSigmaValue. Protocols that only need Ω use this so
// they run unchanged under either detector.
func LeaderOf(v any) (model.ProcID, bool) {
	switch x := v.(type) {
	case OmegaValue:
		return x, true
	case OmegaSigmaValue:
		return x.Leader, true
	default:
		return model.NoProc, false
	}
}

// QuorumOf extracts the Σ component from a detector value that is either a
// SigmaValue or an OmegaSigmaValue.
func QuorumOf(v any) (SigmaValue, bool) {
	switch x := v.(type) {
	case SigmaValue:
		return x, true
	case OmegaSigmaValue:
		return x.Quorum, true
	default:
		return nil, false
	}
}
