// Package model defines the abstract computational model of the paper
// "The Weakest Failure Detector for Eventual Consistency" (PODC 2015), §2:
// a set of processes Π = {p1..pn} taking asynchronous steps under a discrete
// global clock, crash failure patterns F : N → 2^Π, environments (sets of
// failure patterns), and failure-detector histories H : Π × N → R.
//
// Everything else in this repository — the simulator, the failure-detector
// oracles, the protocols, and the CHT reduction — is expressed in terms of
// these types.
package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ProcID identifies a process p_i ∈ Π. IDs are 1-based to match the paper's
// p1..pn convention; 0 is reserved as "no process".
type ProcID int

// NoProc is the zero ProcID, meaning "no process".
const NoProc ProcID = 0

// String implements fmt.Stringer ("p3" style, matching the paper).
func (p ProcID) String() string {
	if p == NoProc {
		return "p?"
	}
	return "p" + strconv.Itoa(int(p))
}

// Time is a tick of the discrete global clock to which processes have no
// access. The range of the clock is N; Time is signed only so that -1 can
// mean "never" in internal bookkeeping.
type Time int64

// TimeNever is a sentinel meaning "at no time" (e.g. a process that never
// crashes).
const TimeNever Time = -1

// Procs returns Π for a system of n processes: [p1, p2, ..., pn].
func Procs(n int) []ProcID {
	ps := make([]ProcID, n)
	for i := range ps {
		ps[i] = ProcID(i + 1)
	}
	return ps
}

// FailurePattern is the paper's F : N → 2^Π, represented by the crash time of
// each process (TimeNever for correct processes). Processes never recover:
// F(t) ⊆ F(t+1) holds by construction.
type FailurePattern struct {
	n       int
	crashAt map[ProcID]Time
}

// NewFailurePattern returns the failure-free pattern over n processes.
// Crashes are added with Crash.
func NewFailurePattern(n int) *FailurePattern {
	if n < 2 {
		panic("model: a system needs at least 2 processes (n >= 2)")
	}
	return &FailurePattern{n: n, crashAt: make(map[ProcID]Time, n)}
}

// NewCrashPattern is a convenience constructor: pattern over n processes in
// which each listed process crashes at the given time.
func NewCrashPattern(n int, crashes map[ProcID]Time) *FailurePattern {
	fp := NewFailurePattern(n)
	for p, t := range crashes {
		fp.Crash(p, t)
	}
	return fp
}

// N returns the number of processes in the system.
func (f *FailurePattern) N() int { return f.n }

// Crash records that p crashes at time t (has crashed *by* time t).
// Crashing an already-crashed process keeps the earliest crash time.
func (f *FailurePattern) Crash(p ProcID, t Time) {
	if p < 1 || int(p) > f.n {
		panic(fmt.Sprintf("model: crash of unknown process %v (n=%d)", p, f.n))
	}
	if t < 0 {
		panic("model: crash time must be >= 0")
	}
	if prev, ok := f.crashAt[p]; ok && prev <= t {
		return
	}
	f.crashAt[p] = t
}

// CrashTime returns the time at which p crashes, or TimeNever if p is correct.
func (f *FailurePattern) CrashTime(p ProcID) Time {
	if t, ok := f.crashAt[p]; ok {
		return t
	}
	return TimeNever
}

// Crashed reports whether p ∈ F(t), i.e. p has crashed by time t.
func (f *FailurePattern) Crashed(p ProcID, t Time) bool {
	ct, ok := f.crashAt[p]
	return ok && ct <= t
}

// Alive reports whether p has not crashed by time t.
func (f *FailurePattern) Alive(p ProcID, t Time) bool { return !f.Crashed(p, t) }

// Faulty returns faulty(F) = ∪_t F(t), sorted by process ID.
func (f *FailurePattern) Faulty() []ProcID {
	out := make([]ProcID, 0, len(f.crashAt))
	for p := range f.crashAt {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Correct returns correct(F) = Π − faulty(F), sorted by process ID.
func (f *FailurePattern) Correct() []ProcID {
	out := make([]ProcID, 0, f.n-len(f.crashAt))
	for _, p := range Procs(f.n) {
		if _, crashed := f.crashAt[p]; !crashed {
			out = append(out, p)
		}
	}
	return out
}

// IsCorrect reports whether p ∈ correct(F).
func (f *FailurePattern) IsCorrect(p ProcID) bool {
	_, crashed := f.crashAt[p]
	return !crashed
}

// AliveAt returns the set of processes not crashed by time t, sorted.
func (f *FailurePattern) AliveAt(t Time) []ProcID {
	out := make([]ProcID, 0, f.n)
	for _, p := range Procs(f.n) {
		if f.Alive(p, t) {
			out = append(out, p)
		}
	}
	return out
}

// MinCorrect returns the correct process with the smallest ID. It panics if
// no process is correct (such patterns are excluded from all environments we
// use, as is standard).
func (f *FailurePattern) MinCorrect() ProcID {
	for _, p := range Procs(f.n) {
		if f.IsCorrect(p) {
			return p
		}
	}
	panic("model: failure pattern with no correct process")
}

// HasCorrectMajority reports whether |correct(F)| > n/2.
func (f *FailurePattern) HasCorrectMajority() bool {
	return len(f.Correct()) > f.n/2
}

// Clone returns a deep copy of the pattern.
func (f *FailurePattern) Clone() *FailurePattern {
	cp := NewFailurePattern(f.n)
	for p, t := range f.crashAt {
		cp.crashAt[p] = t
	}
	return cp
}

// String renders the pattern, e.g. "F{n=4, crash p2@10, crash p4@0}".
func (f *FailurePattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F{n=%d", f.n)
	for _, p := range f.Faulty() {
		fmt.Fprintf(&b, ", crash %v@%d", p, f.crashAt[p])
	}
	b.WriteString("}")
	return b.String()
}

// Environment is the paper's E: a (possibly infinite) set of failure
// patterns. We represent it as a named predicate plus a finite generator of
// representative patterns used by experiments and tests.
type Environment struct {
	// Name identifies the environment in tables ("any", "majority", ...).
	Name string
	// Contains reports whether a failure pattern belongs to the environment.
	Contains func(*FailurePattern) bool
	// Samples generates representative failure patterns over n processes for
	// experiments. All returned patterns must satisfy Contains.
	Samples func(n int) []*FailurePattern
}

// EnvAny is the unconstrained environment: any number of crashes at any time
// (as long as at least one process stays correct, the standard assumption).
func EnvAny() Environment {
	return Environment{
		Name:     "any",
		Contains: func(f *FailurePattern) bool { return len(f.Correct()) >= 1 },
		Samples: func(n int) []*FailurePattern {
			var out []*FailurePattern
			// Failure-free.
			out = append(out, NewFailurePattern(n))
			// One crash at time 0 and mid-run.
			fp := NewFailurePattern(n)
			fp.Crash(ProcID(n), 0)
			out = append(out, fp)
			fp = NewFailurePattern(n)
			fp.Crash(ProcID(1), 50)
			out = append(out, fp)
			// Minority correct: crash ceil(n/2) processes.
			fp = NewFailurePattern(n)
			for i := 0; i < (n+1)/2 && i < n-1; i++ {
				fp.Crash(ProcID(n-i), Time(10*i))
			}
			out = append(out, fp)
			// All but one crash.
			fp = NewFailurePattern(n)
			for i := 2; i <= n; i++ {
				fp.Crash(ProcID(i), Time(5*(i-1)))
			}
			out = append(out, fp)
			return out
		},
	}
}

// EnvMajority is the environment in which a majority of processes are
// correct — where Ω suffices even for (strong) consensus [CHT96, CT96].
func EnvMajority() Environment {
	return Environment{
		Name:     "majority",
		Contains: func(f *FailurePattern) bool { return f.HasCorrectMajority() },
		Samples: func(n int) []*FailurePattern {
			var out []*FailurePattern
			out = append(out, NewFailurePattern(n))
			maxCrash := (n - 1) / 2
			fp := NewFailurePattern(n)
			for i := 0; i < maxCrash; i++ {
				fp.Crash(ProcID(n-i), Time(20*i))
			}
			out = append(out, fp)
			return out
		},
	}
}

// EnvMinorityCorrect contains only patterns where at most a minority is
// correct — the regime in which Σ-style quorums are unobtainable from
// message passing and where the paper's ETOB still makes progress.
func EnvMinorityCorrect() Environment {
	return Environment{
		Name: "minority-correct",
		Contains: func(f *FailurePattern) bool {
			c := len(f.Correct())
			return c >= 1 && c <= f.n/2
		},
		Samples: func(n int) []*FailurePattern {
			fp := NewFailurePattern(n)
			// Crash enough processes to leave floor(n/2) correct.
			for i := 0; i < n-(n/2) && n-i >= 2; i++ {
				fp.Crash(ProcID(n-i), Time(10*i))
			}
			if len(fp.Correct()) > n/2 {
				fp.Crash(ProcID(len(fp.Correct())), 0)
			}
			return []*FailurePattern{fp}
		},
	}
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche of x, so that
// nearby inputs give unrelated outputs. Seeded fault fates, per-link drop
// rates and per-layer seed streams are derived with it as pure functions of
// their inputs, never of call order or map order.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
