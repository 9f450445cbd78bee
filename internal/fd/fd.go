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
package fd

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Detector is a single failure-detector history: Value(p, t) is H(p, t),
// the value process p's module outputs at time t.
type Detector interface {
	// Name identifies the detector class for logs and tables ("Omega", ...).
	Name() string
	// Value returns H(p, t). Implementations must be deterministic and
	// side-effect free: the CHT reduction samples them repeatedly.
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
	// preSeg is the segmentation of the pre-stabilization phase: the start of
	// the constant segment containing t (see Segmented). The shipped pre
	// schedules are either constant in t (self-trust, split: segment start 0)
	// or periodic (rotating). nil with a non-nil pre means "unknown", which
	// degrades to exact-time caching before stab.
	preSeg func(t model.Time) model.Time
}

var _ Detector = (*Omega)(nil)
var _ Segmented = (*Omega)(nil)

// NewOmegaStable returns an Ω history that outputs the same correct leader at
// every process from time 0 — the regime in which Algorithm 5 implements
// *strong* total order broadcast (§5, property 2).
func NewOmegaStable(fp *model.FailurePattern, leader model.ProcID) *Omega {
	return newOmega(fp, leader, 0, nil, constantPre)
}

// NewOmegaEventual returns an Ω history that stabilizes on the given leader
// at stab. Before stab, every process trusts itself (a classic divergence
// scenario: every process believes it is the leader — maximal disagreement).
func NewOmegaEventual(fp *model.FailurePattern, leader model.ProcID, stab model.Time) *Omega {
	return newOmega(fp, leader, stab,
		func(p model.ProcID, _ model.Time) model.ProcID { return p }, constantPre)
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
	}, func(t model.Time) model.Time { return (t / period) * period })
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
	}, constantPre)
}

// constantPre marks a pre-stabilization schedule that does not depend on t:
// the whole pre phase is one constant segment per process.
func constantPre(model.Time) model.Time { return 0 }

func newOmega(fp *model.FailurePattern, leader model.ProcID, stab model.Time,
	pre func(model.ProcID, model.Time) model.ProcID, preSeg func(model.Time) model.Time) *Omega {
	if !fp.IsCorrect(leader) {
		panic(fmt.Sprintf("fd: eventual leader %v is not correct in %v", leader, fp))
	}
	if stab < 0 {
		panic("fd: stabilization time must be >= 0")
	}
	return &Omega{fp: fp, leader: leader, stab: stab, pre: pre, preSeg: preSeg}
}

// Name implements Detector.
func (o *Omega) Name() string { return "Omega" }

// Value implements Detector.
func (o *Omega) Value(p model.ProcID, t model.Time) any {
	if t >= o.stab || o.pre == nil {
		return o.leader
	}
	return o.pre(p, t)
}

// SegmentStart implements Segmented: from stab on the output is the constant
// eventual leader; before stab the pre schedule's own segmentation applies.
func (o *Omega) SegmentStart(_ model.ProcID, t model.Time) model.Time {
	if o.pre == nil {
		return 0 // constant history
	}
	if t >= o.stab {
		return o.stab
	}
	if o.preSeg == nil {
		return t // unknown pre schedule: exact-time caching only
	}
	return o.preSeg(t)
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
	fp   *model.FailurePattern
	stab model.Time
}

var _ Detector = (*Sigma)(nil)

// NewSigma returns a Σ history stabilizing at stab.
func NewSigma(fp *model.FailurePattern, stab model.Time) *Sigma {
	return &Sigma{fp: fp, stab: stab}
}

// Name implements Detector.
func (s *Sigma) Name() string { return "Sigma" }

// Value implements Detector.
func (s *Sigma) Value(p model.ProcID, t model.Time) any {
	if t < s.stab {
		return SigmaValue(model.Procs(s.fp.N()))
	}
	return SigmaValue(s.fp.Correct())
}

// SegmentStart implements Segmented: Π until stab, correct(F) afterwards —
// two constant segments.
func (s *Sigma) SegmentStart(_ model.ProcID, t model.Time) model.Time {
	if t < s.stab {
		return 0
	}
	return s.stab
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

// SegmentStart implements Segmented: the suspect set changes exactly at crash
// times, so the segment containing t starts at the latest crash ≤ t.
func (d *Perfect) SegmentStart(_ model.ProcID, t model.Time) model.Time {
	return latestCrashBy(d.fp, t)
}

// latestCrashBy returns the largest crash time ≤ t in fp, or 0 if no process
// has crashed by t. It reads fp live (never a precomputed snapshot) so that
// segment answers stay correct even if crashes are added after the detector
// is built.
func latestCrashBy(fp *model.FailurePattern, t model.Time) model.Time {
	var s model.Time
	for q := 1; q <= fp.N(); q++ {
		if ct := fp.CrashTime(model.ProcID(q)); ct >= 0 && ct <= t && ct > s {
			s = ct
		}
	}
	return s
}

func crashedBy(fp *model.FailurePattern, t model.Time) SuspectValue {
	out := make(SuspectValue, 0, fp.N())
	for _, q := range model.Procs(fp.N()) {
		if fp.Crashed(q, t) {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
}

var _ Detector = (*OmegaSigma)(nil)

// NewOmegaSigma combines the two histories.
func NewOmegaSigma(o *Omega, s *Sigma) *OmegaSigma { return &OmegaSigma{O: o, S: s} }

// Name implements Detector.
func (d *OmegaSigma) Name() string { return "Omega+Sigma" }

// Value implements Detector.
func (d *OmegaSigma) Value(p model.ProcID, t model.Time) any {
	return OmegaSigmaValue{
		Leader: d.O.Value(p, t).(OmegaValue),
		Quorum: d.S.Value(p, t).(SigmaValue),
	}
}

// SegmentStart implements Segmented: the pair is constant exactly on the
// intersection of the components' segments, and the intersection segment
// containing t starts at the later of the two component starts.
func (d *OmegaSigma) SegmentStart(p model.ProcID, t model.Time) model.Time {
	so := d.O.SegmentStart(p, t)
	ss := d.S.SegmentStart(p, t)
	if ss > so {
		return ss
	}
	return so
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
