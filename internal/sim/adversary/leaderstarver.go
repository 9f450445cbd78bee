package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/sim"
)

// LeaderStarver is the protocol-AWARE adversarial scheduler: instead of
// starving a blindly rotating victim (AdversarialScheduler), it tracks the
// run's current Ω output through the kernel's leadership-observation hook
// (sim.LeaderAware) and pins every link touching the CURRENT LEADER at the
// admissibility bound. The whole convergence pipeline — updates flowing into
// the leader, promotions flowing out — is starved for as long as that process
// is the leader, which for a stabilized Ω is forever.
//
// This is the scheduler the blind rotation's honesty note in E12 asked for:
// a rotating victim spends only 1/n of the clock on the process that matters,
// and when the rotation happens to spare the post-stabilization leader the
// blind adversary can cost LESS than i.i.d. noise. The worst admissible
// schedule is protocol-aware; E13 quantifies the gap.
//
// Ω output is per-process and may disagree before stabilization, so the
// starver anchors ONE coherent victim per instant: the leader currently
// output at the lowest-id process's module (see victim). Every link
// touching the victim — incoming, outgoing, and the victim's own
// self-delivery — runs at Max; post-stabilization every module agrees and
// the rule is exactly "all links touching the leader run at Max". Starving
// every link that ANY view associates with leadership was tried and
// rejected: under a self-trusting pre-phase it saturates the whole system
// at Max, which is a synchronous lockstep — replicas see identical arrival
// orders and agree EARLY. Targeted asymmetry is the stronger adversary, and
// links the victim rule spares keep the same greedy arrival-spread
// lookahead as the blind scheduler.
//
// The observation is installed by the kernel at construction (any
// fd.Detector whose values carry an Ω component — Omega, OmegaUp,
// OmegaSigma — is visible; see fd.LeaderOf). Driven without a kernel,
// or under a detector with no Ω component, the starver degrades to the pure
// greedy-spread adversary: no observation, no victim.
//
// Every delay is finite (≤ Max) and every message is delivered, so the
// starver remains an admissible §2 environment: eventual consistency must
// still converge, as late as a leader-aware greedy adversary can push it.
// Determinism: the exploration stream is drawn exactly as in
// AdversarialScheduler (one draw per non-self message), and leadership
// observations are pure queries of the deterministic detector history, so
// runs are bit-for-bit reproducible per seed.
type LeaderStarver struct {
	// Min and Max bound the delay menu (defaults 1 and 60 if both 0).
	Min, Max model.Time
	// Menu is the number of candidate delays (default 6, minimum 2).
	Menu int
	// Explore makes ~1 in Explore choices a seeded random menu pick
	// (default 16; negative disables). Exploration outranks starvation,
	// exactly as in AdversarialScheduler.
	Explore int
	// StarveQuorum redirects the starvation target from the leader to a
	// QUORUM of its followers: the ⌈n/2⌉ lowest-id processes other than the
	// current leader — the smallest set guaranteed to intersect every
	// majority quorum, so a Σ-style quorum primitive layered on these runs
	// cannot assemble an unstarved quorum. The leader's own links (its step
	// loop included) run at the ordinary greedy schedule; the adversary bets
	// that choking the followers' inbound promote traffic delays agreement
	// as much as choking its source. E14 quantifies that bet against the
	// leader-starving default.
	StarveQuorum bool

	n       int // frozen in Validate
	rng     *rand.Rand
	arrival []model.Time // index p: latest scheduled arrival at p (1-based)
	leader  sim.LeaderObservation
}

var _ sim.NetworkModel = (*LeaderStarver)(nil)
var _ sim.NetworkValidator = (*LeaderStarver)(nil)
var _ sim.LeaderAware = (*LeaderStarver)(nil)

// NewLeaderStarver returns the leader-aware scheduler with default menu
// parameters.
func NewLeaderStarver() *LeaderStarver { return &LeaderStarver{} }

// Validate implements sim.NetworkValidator, freezing the system size.
func (s *LeaderStarver) Validate(n int) error {
	if s.Menu == 1 {
		return fmt.Errorf("sim: LeaderStarver.Menu=1 leaves no delay choice to the adversary")
	}
	s.n = n
	return nil
}

// Reset implements sim.NetworkModel. The leadership observation, installed
// once per run by the kernel, survives Reset.
func (s *LeaderStarver) Reset(seed int64) {
	s.rng = rand.New(rand.NewSource(seed))
	s.arrival = make([]model.Time, s.n+1)
}

// ObserveLeadership implements sim.LeaderAware.
func (s *LeaderStarver) ObserveLeadership(obs sim.LeaderObservation) { s.leader = obs }

func (s *LeaderStarver) params() (min, max model.Time, menu int) {
	min, max = s.Min, s.Max
	if min == 0 && max == 0 {
		min, max = 1, 60
	}
	if max < min {
		max = min
	}
	menu = s.Menu
	if menu < 2 {
		menu = 6
	}
	return min, max, menu
}

// victim returns the process whose links are starved at time t: the leader
// currently output at the CANONICAL OBSERVER's failure-detector module. Ω
// output is per-process and may disagree before stabilization, so the
// adversary needs one coherent victim per instant; the lowest process id is
// the deterministic anchor (and the process the shipped Ω histories
// conventionally stabilize toward, which is what makes the bet vicious:
// under a self-trusting pre-phase the observer names ITSELF, so the starver
// is already sitting on the eventual leader's links — its own step loop
// included — long before the blind rotation would next visit it). From
// stabilization on every observer agrees and the victim IS the leader.
func (s *LeaderStarver) victim(t model.Time) (model.ProcID, bool) {
	if s.leader == nil {
		return model.NoProc, false
	}
	return s.leader(canonicalObserver, t)
}

// canonicalObserver is the process whose Ω view anchors the victim choice.
const canonicalObserver = model.ProcID(1)

// starves reports whether p's links run at the bound at time t. In the
// default mode the starved set is exactly {victim}. With StarveQuorum it is
// the ⌈n/2⌉ lowest-id processes OTHER than the victim — a deterministic
// transversal of every majority quorum that leaves the leader itself
// unstarved.
func (s *LeaderStarver) starves(p model.ProcID, t model.Time) bool {
	v, ok := s.victim(t)
	if !ok {
		return false
	}
	if !s.StarveQuorum {
		return p == v
	}
	if p == v {
		return false
	}
	quota := (s.n + 1) / 2
	for q := model.ProcID(1); quota > 0 && int(q) <= s.n; q++ {
		if q == v {
			continue
		}
		if q == p {
			return true
		}
		quota--
	}
	return false
}

// Delay implements sim.NetworkModel.
func (s *LeaderStarver) Delay(from, to model.ProcID, sendTime model.Time) (model.Time, bool) {
	min, max, menu := s.params()
	checkRange("LeaderStarver", s.n, from, to)
	if len(s.arrival) < s.n+1 {
		s.arrival = append(s.arrival, make([]model.Time, s.n+1-len(s.arrival))...)
	}
	if from == to {
		// Self-delivery models local memory — except a starved process's: the
		// leader's own step loop (an EC leader decides on its own promote
		// round-trip) is a link touching the leader, and pinning it is what
		// starves the promotion pipeline at its source; a starved follower's
		// step loop is likewise a link touching the follower.
		if s.starves(from, sendTime) {
			return max, true
		}
		return min, true
	}
	pick := explorePick(s.rng, s.Explore, menu)
	switch {
	case pick >= 0:
		// Seeded exploration chose for us (outranks starvation, as in
		// AdversarialScheduler).
	case s.starves(from, sendTime) || s.starves(to, sendTime):
		pick = menu - 1
	default:
		pick = greedySpread(s.arrival, to, sendTime, min, max, menu)
	}
	d := menuDelay(min, max, menu, pick)
	if arrive := sendTime + d; arrive > s.arrival[to] {
		s.arrival[to] = arrive
	}
	return d, true
}
