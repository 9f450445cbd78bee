// Package adversary is the kernel's adversarial environment engine. The
// paper's results are quantified over environments — which processes are up
// and how links behave — and the base kernel ships only the friendly half of
// that space: monotone crash patterns and networks that always deliver. This
// package supplies the hostile half as first-class, fully seeded adversary
// objects:
//
//   - FaultSchedule generalizes model.FailurePattern to up/down INTERVALS:
//     processes crash and rejoin (churn). It implements model.FaultModel, so
//     a kernel given one via sim.Options.Faults suspends a process for each
//     down interval (dropping everything sent to it) and restarts it at the
//     interval's end with fresh automaton state — Init re-runs, nothing
//     survives. Churn builds randomized schedules from a seed.
//
//   - Lossy is a sim.NetworkModel that DROPS messages: every directed link
//     gets its own drop probability derived from the seed (mean Drop), with
//     optional burst losses that take out runs of consecutive messages on a
//     link. A raw Lossy network violates the paper's §2 eventual-delivery
//     assumption on purpose — experiments use it to show eventual consistency
//     failing to converge — and pairing it with internal/retransmit.Wrap
//     restores eventual delivery end-to-end, making the loss rate a
//     sweepable parameter instead of a broken assumption.
//
//   - AdversarialScheduler is a sim.NetworkModel that chooses each message's
//     delay to MAXIMIZE replica divergence rather than drawing i.i.d.: a
//     greedy lookahead scores a bounded menu of candidate delays and picks
//     the one that spreads arrival times across receivers furthest apart,
//     while a rotating victim is starved with maximal delays. Every delay is
//     still finite (bounded by Max), so the scheduler is an admissible §2
//     environment: convergence must still happen, just as late as a greedy
//     adversary can push it.
//
//   - LeaderStarver is the PROTOCOL-AWARE scheduler the blind rotation's E12
//     honesty note asked for: it reads the run's current Ω output through
//     the kernel's leadership-observation hook (sim.LeaderAware — the kernel
//     hands any aware model a pure query reading the same detector history
//     the automata's own queries read) and pins EVERY link
//     touching the current leader at the admissibility bound, the leader's
//     own self-delivery loop included. Pre-stabilization views may disagree,
//     so the victim is anchored at the lowest-id process's view; links the
//     victim rule spares get the same greedy spread as the blind scheduler.
//     E13 in internal/bench measures the gap: on the workload where the
//     blind rotation converges EARLIER than i.i.d. noise, leader-awareness
//     costs roughly an order of magnitude over both.
//
//   - Composite bundles a (possibly sim.ComposeNetworks-layered) link model
//     and a fault schedule into ONE registered preset name, so a hostile
//     environment — "churn-lossy" (churn under ~15% loss), "hostile"
//     (leader starvation over ~10% loss over churn) — is a single object
//     usable from ecsim -net, the examples, and the experiment tables.
//     Fault halves compose through model.MergeFaults (down = down in any
//     component, restarts recomputed against the merged liveness).
//
// Determinism contract: all adversaries are deterministic functions of their
// configuration and seed. FaultSchedule is immutable after construction and
// safe to share across concurrent kernels; the network models follow the
// sim.NetworkModel contract (all randomness from Reset's seed, one Delay
// call per message in send order), and leadership observations are pure
// queries of the deterministic detector history — so a run under any of
// them, composites included, is bit-for-bit reproducible. The determinism
// and parallel/serial identity regression tests in this package pin that
// across seeds for every registered preset.
//
// The package registers environment presets ("lossy", "lossy-burst",
// "adversarial", "leader-starve", "churn-fast", "churn-slow", "churn-lossy",
// "hostile") into the sim preset registry from init, so ecsim -net and the
// examples can name them.
package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/model"
)

// interval is one down period [start, end). end == model.TimeNever means the
// process never comes back (a permanent crash).
type interval struct {
	start, end model.Time
}

// FaultSchedule maps each process to a set of down intervals — the up/down
// generalization of the paper's monotone F. A FailurePattern is the special
// case in which every down interval extends to infinity.
//
// Build one with NewFaultSchedule + Down/Crash calls, or generate churn with
// Churn. Schedules normalize on construction: intervals per process are
// sorted and overlaps merged, so queries are simple scans. After handing a
// schedule to a kernel it must not be mutated (see model.FaultModel).
type FaultSchedule struct {
	n    int
	down map[model.ProcID][]interval
}

var _ model.FaultModel = (*FaultSchedule)(nil)

// NewFaultSchedule returns the all-up schedule over n processes.
func NewFaultSchedule(n int) *FaultSchedule {
	if n < 2 {
		panic("adversary: a system needs at least 2 processes (n >= 2)")
	}
	return &FaultSchedule{n: n, down: make(map[model.ProcID][]interval, n)}
}

// N returns the number of processes in the system.
func (s *FaultSchedule) N() int { return s.n }

// Down records that p is down during [from, to). to == model.TimeNever (or
// any negative value) means p never restarts — a permanent crash. Overlapping
// and adjacent intervals merge.
func (s *FaultSchedule) Down(p model.ProcID, from, to model.Time) {
	if p < 1 || int(p) > s.n {
		panic(fmt.Sprintf("adversary: down interval for unknown process %v (n=%d)", p, s.n))
	}
	if from < 0 {
		panic("adversary: down interval must start at >= 0")
	}
	if to >= 0 && to <= from {
		panic(fmt.Sprintf("adversary: empty down interval [%d, %d)", from, to))
	}
	if to < 0 {
		to = model.TimeNever
	}
	s.down[p] = mergeIntervals(append(s.down[p], interval{from, to}))
}

// Crash records a permanent crash of p at t — the monotone special case.
func (s *FaultSchedule) Crash(p model.ProcID, t model.Time) { s.Down(p, t, model.TimeNever) }

// mergeIntervals sorts by start and merges overlapping or touching intervals.
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.end == model.TimeNever || iv.start <= last.end {
				// Overlapping or adjacent: extend the previous interval.
				if last.end != model.TimeNever && (iv.end == model.TimeNever || iv.end > last.end) {
					last.end = iv.end
				}
				continue
			}
		}
		out = append(out, iv)
	}
	return out
}

// Up implements model.FaultModel.
func (s *FaultSchedule) Up(p model.ProcID, t model.Time) bool {
	for _, iv := range s.down[p] {
		if t < iv.start {
			return true // intervals are sorted; no later one can contain t
		}
		if iv.end == model.TimeNever || t < iv.end {
			return false
		}
	}
	return true
}

// Restarts implements model.FaultModel: the end of every finite down
// interval, strictly increasing.
func (s *FaultSchedule) Restarts(p model.ProcID) []model.Time {
	var out []model.Time
	for _, iv := range s.down[p] {
		if iv.end != model.TimeNever {
			out = append(out, iv.end)
		}
	}
	return out
}

// EventuallyUp reports whether p is up from some time on — the churn
// analogue of "correct": p has no permanent down interval.
func (s *FaultSchedule) EventuallyUp(p model.ProcID) bool {
	ivs := s.down[p]
	return len(ivs) == 0 || ivs[len(ivs)-1].end != model.TimeNever
}

// QuietAfter returns the earliest time from which every process is
// permanently in its final state (eventually-up processes up, crashed
// processes down) — the end of all churn. Convergence measurements use it as
// the analogue of a partition's heal time.
func (s *FaultSchedule) QuietAfter() model.Time {
	var q model.Time
	for _, ivs := range s.down {
		for _, iv := range ivs {
			t := iv.end
			if t == model.TimeNever {
				t = iv.start
			}
			if t > q {
				q = t
			}
		}
	}
	return q
}

// Boundaries returns every instant at which some process's up/down state
// changes, sorted and deduplicated: between two of them the up set is
// constant.
func (s *FaultSchedule) Boundaries() []model.Time {
	set := map[model.Time]bool{}
	for _, ivs := range s.down {
		for _, iv := range ivs {
			set[iv.start] = true
			if iv.end != model.TimeNever {
				set[iv.end] = true
			}
		}
	}
	out := make([]model.Time, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pattern projects the schedule onto the paper's monotone model: a process
// with a permanent down interval crashes at that interval's start; churning
// (eventually-up) processes are correct. Detector constructors that take a
// FailurePattern consume this projection.
func (s *FaultSchedule) Pattern() *model.FailurePattern {
	fp := model.NewFailurePattern(s.n)
	for p, ivs := range s.down {
		if n := len(ivs); n > 0 && ivs[n-1].end == model.TimeNever {
			fp.Crash(p, ivs[n-1].start)
		}
	}
	return fp
}

// String renders the schedule, e.g. "FS{n=3, p2 down [100,200) [500,∞)}".
func (s *FaultSchedule) String() string {
	out := fmt.Sprintf("FS{n=%d", s.n)
	for _, p := range model.Procs(s.n) {
		ivs := s.down[p]
		if len(ivs) == 0 {
			continue
		}
		out += fmt.Sprintf(", %v down", p)
		for _, iv := range ivs {
			if iv.end == model.TimeNever {
				out += fmt.Sprintf(" [%d,∞)", iv.start)
			} else {
				out += fmt.Sprintf(" [%d,%d)", iv.start, iv.end)
			}
		}
	}
	return out + "}"
}

// ChurnConfig parameterizes the Churn schedule generator.
type ChurnConfig struct {
	// Seed drives all interval draws; same seed, same schedule.
	Seed int64
	// MeanUp and MeanDown are the mean lengths of up and down intervals.
	// Actual lengths are drawn uniformly from [mean/2, 3*mean/2].
	// Defaults: 800 and 200.
	MeanUp, MeanDown model.Time
	// Until stops the churn: no down interval starts at or after it, so every
	// process is permanently up from shortly after Until — the quiet period
	// convergence is measured against. Default: 4000.
	Until model.Time
	// Spare lists processes never taken down (e.g. a leader that must satisfy
	// an Ω history's correctness requirement). Empty spares no one.
	Spare []model.ProcID
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.MeanUp <= 0 {
		c.MeanUp = 800
	}
	if c.MeanDown <= 0 {
		c.MeanDown = 200
	}
	if c.Until <= 0 {
		c.Until = 4000
	}
	return c
}

// Churn generates a seeded random churn schedule over n processes: each
// non-spared process alternates up intervals of mean MeanUp and down
// intervals of mean MeanDown until the churn window closes at Until. Every
// process is eventually up (churn models restarts, not deaths), so all n
// count as correct in the eventual sense and EC convergence is reachable in
// every generated schedule.
func Churn(n int, cfg ChurnConfig) *FaultSchedule {
	cfg = cfg.withDefaults()
	s := NewFaultSchedule(n)
	spared := make(map[model.ProcID]bool, len(cfg.Spare))
	for _, p := range cfg.Spare {
		spared[p] = true
	}
	for _, p := range model.Procs(n) {
		if spared[p] {
			continue
		}
		// Independent stream per process so schedules don't shift wholesale
		// when one process's draw count changes.
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(p)*7919))
		draw := func(mean model.Time) model.Time {
			return mean/2 + model.Time(rng.Int63n(int64(mean)+1))
		}
		// First down onset is a full up interval in, so time 0 starts up.
		t := draw(cfg.MeanUp)
		for t < cfg.Until {
			d := draw(cfg.MeanDown)
			s.Down(p, t, t+d)
			t += d + draw(cfg.MeanUp)
		}
	}
	return s
}
