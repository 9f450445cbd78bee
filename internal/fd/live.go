package fd

import (
	"fmt"

	"repro/internal/model"
)

// OmegaUp is an Ω history for environments with churn: before Stab it outputs
// the smallest process that is UP at t according to a liveness function —
// leadership fails over while the leader is down and fails back when it
// rejoins — and from Stab on it outputs the fixed eventual leader at every
// process. It is how the adversarial environment engine's FaultSchedule
// (internal/sim/adversary) surfaces in a failure-detector history: the
// detector's value genuinely changes across down intervals, which is what
// E10 exercises.
//
// The Ω specification only constrains the eventual output (some correct
// process, forever, at every correct process), so any pre-Stab behavior is
// admissible; tracking the live set is the natural adversary here because it
// maximizes leadership churn without ever electing a down process. The
// eventual leader must be up forever from some point on (eventually-up in
// the schedule's sense); callers pass the schedule's churn end as Stab.
//
// A query before Stab scans up from p1 until it finds a live process, which
// is one call while p1 is up.
type OmegaUp struct {
	n      int
	leader model.ProcID
	stab   model.Time
	up     func(p model.ProcID, t model.Time) bool
}

var _ Detector = (*OmegaUp)(nil)

// NewOmegaUp builds the history over n processes. up must be a deterministic
// pure function (model.FaultModel.Up qualifies).
func NewOmegaUp(n int, leader model.ProcID, stab model.Time, up func(model.ProcID, model.Time) bool) *OmegaUp {
	if leader < 1 || int(leader) > n {
		panic(fmt.Sprintf("fd: eventual leader %v outside a %d-process system", leader, n))
	}
	if stab < 0 {
		panic("fd: stabilization time must be >= 0")
	}
	return &OmegaUp{n: n, leader: leader, stab: stab, up: up}
}

// Name implements Detector.
func (o *OmegaUp) Name() string { return "Omega" }

// Value implements Detector.
func (o *OmegaUp) Value(_ model.ProcID, t model.Time) any {
	if t >= o.stab {
		return o.leader
	}
	for q := 1; q <= o.n; q++ {
		if o.up(model.ProcID(q), t) {
			return model.ProcID(q)
		}
	}
	// Everyone down at t: no process takes a step, so the value is never
	// observed; return the eventual leader for definiteness.
	return o.leader
}

// StabTime returns the time from which the output is the stable leader.
func (o *OmegaUp) StabTime() model.Time { return o.stab }

// Leader returns the eventual leader.
func (o *OmegaUp) Leader() model.ProcID { return o.leader }
