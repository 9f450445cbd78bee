package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/model"
)

// NetworkModel decides the fate of every message on the wire: how long the
// link from→to delays a message sent at a given time, and whether the message
// is delivered at all. It is the kernel's pluggable environment engine — the
// paper's results are parameterized by an environment (which processes crash,
// how links behave), and a NetworkModel is the link half of that object.
//
// Determinism contract: all randomness must come from the seed passed to
// Reset, which the kernel calls exactly once at construction with
// Options.Seed. Delay is invoked once per sent message, in send order, so a
// model that draws from its PRNG on each call is reproducible run-to-run.
// A NetworkModel instance must not be shared by two kernels running
// concurrently; sequential reuse is fine (each New re-seeds it).
//
// Models that honor the paper's eventual-delivery assumption (§2: every
// message sent over a link between correct processes is eventually received)
// must either always return deliver=true and express disruptions as finite
// extra delay — Partitioned, for example, buffers cross-partition traffic and
// releases it at heal time rather than dropping it — OR be paired with an
// automaton-level retransmission layer (internal/retransmit.Wrap) that
// restores eventual delivery end-to-end over the lossy wire, as
// internal/sim/adversary.Lossy is. A lossy model without retransmission runs
// outside the paper's model: the kernel permits it (counting the losses in
// MessagesLost) precisely so experiments can show eventual consistency
// failing to converge when eventual delivery is withdrawn.
// NetworkFactory builds a fresh NetworkModel instance. Options.Network takes
// a factory — not an instance — so that every kernel owns a private model and
// a shared Options value can never alias one stateful model across
// interleaved or concurrent kernels. The preset registry has always had this
// shape; Options now matches it.
type NetworkFactory func() NetworkModel

type NetworkModel interface {
	// Reset re-seeds the model's PRNG and clears any per-run state.
	Reset(seed int64)
	// Delay returns the delivery delay in ticks for a message from→to sent
	// at sendTime, and whether the message is delivered at all. Negative
	// delays are clamped to 0 by the kernel.
	Delay(from, to model.ProcID, sendTime model.Time) (delay model.Time, deliver bool)
}

// LeaderObservation reports the Ω output of the run's failure detector: the
// leader currently output at process p's module at time t, with ok=false when
// the detector history has no Ω component. It is the read-only window through
// which a protocol-aware network model sees the protocol it is scheduling
// against.
//
// The kernel installs one automatically (see LeaderAware): it reads the same
// detector the step loop queries, so observations are deterministic, O(1),
// and always consistent with what the automata themselves see through
// model.Context.FD().
type LeaderObservation func(p model.ProcID, t model.Time) (leader model.ProcID, ok bool)

// LeaderAware is an optional NetworkModel interface for protocol-aware
// adversaries. A model implementing it receives a LeaderObservation from the
// kernel at construction time (after Reset), and may consult it during Delay
// to aim disruption at the protocol's current leader —
// adversary.LeaderStarver pins every link touching the observed leader at the
// admissibility bound. The observation stays valid for the whole run; models
// must treat it as a pure query and must not retain it past the run.
//
// Composite models (ComposeNetworks) forward the observation to every layer
// that wants one. A model driven outside a kernel simply never receives an
// observation and must degrade gracefully (LeaderStarver falls back to its
// greedy spread with no starvation).
type LeaderAware interface {
	ObserveLeadership(obs LeaderObservation)
}

// NetworkValidator is an optional interface for models with configuration
// constraints that depend on the system size. The kernel calls Validate(n)
// at construction and panics on error; CLIs can call ValidateNetwork first
// to turn the same error into a flag diagnostic.
type NetworkValidator interface {
	Validate(n int) error
}

// ValidateNetwork checks a model's configuration against a system of n
// processes, if the model has constraints to check.
func ValidateNetwork(net NetworkModel, n int) error {
	if v, ok := net.(NetworkValidator); ok {
		return v.Validate(n)
	}
	return nil
}

// Uniform delays every message uniformly at random in [Min, Max] ticks,
// independently per message — the kernel's historical default. Set Min == Max
// for a fixed-delay network (used to measure latency in communication steps).
type Uniform struct {
	Min, Max model.Time

	rng *rand.Rand
}

var _ NetworkModel = (*Uniform)(nil)

// NewUniform returns a uniform-delay model over [min, max].
func NewUniform(min, max model.Time) *Uniform {
	if max < min {
		max = min
	}
	return &Uniform{Min: min, Max: max}
}

// Reset implements NetworkModel.
func (u *Uniform) Reset(seed int64) { u.rng = rand.New(rand.NewSource(seed)) }

// drawUniform samples a delay uniformly in [min, max] (clamping max up to
// min), drawing from rng exactly when max > min — the single draw shared by
// every model overlaying a uniform base, so their streams cannot diverge.
func drawUniform(rng *rand.Rand, min, max model.Time) model.Time {
	d := min
	if max > min {
		d += model.Time(rng.Int63n(int64(max-min) + 1))
	}
	return d
}

// Delay implements NetworkModel.
func (u *Uniform) Delay(model.ProcID, model.ProcID, model.Time) (model.Time, bool) {
	return drawUniform(u.rng, u.Min, u.Max), true
}

// Partitioned overlays crash-free network partitions on a uniform base
// delay. The process set is split into two sides (p ≤ LeftSize on the left,
// the rest on the right); partitions form and heal on a fixed schedule.
// While a partition is active, a message crossing sides is *buffered*, not
// dropped: it is released at the heal time and then experiences a fresh base
// delay, honoring the paper's eventual-delivery assumption. Same-side
// traffic, and all traffic outside partition windows, sees the base delay.
//
// The k-th partition window (k = 0, 1, ...) is [FirstAt + k·Interval,
// FirstAt + k·Interval + Duration). Interval == 0 means a single window.
// The crossing decision is made at send time: a message sent inside a
// window waits for that window's heal; a message sent outside is unaffected
// even if a partition forms while it is in flight (link state at send time
// decides, as in a store-and-forward relay at the partition boundary).
type Partitioned struct {
	// Min and Max bound the base link delay (defaults 10 and 20 if both 0).
	Min, Max model.Time
	// LeftSize is the number of processes on the left side (p1..pLeftSize).
	LeftSize int
	// FirstAt is when the first partition forms.
	FirstAt model.Time
	// Duration is how long each partition lasts before healing.
	Duration model.Time
	// Interval is the period between successive partition onsets
	// (0 = exactly one partition).
	Interval model.Time

	rng *rand.Rand
}

var _ NetworkModel = (*Partitioned)(nil)

// NewPartitioned returns a model with one partition window
// [firstAt, firstAt+duration) separating p1..pLeftSize from the rest, over a
// default 10–20 tick base delay.
func NewPartitioned(leftSize int, firstAt, duration model.Time) *Partitioned {
	return &Partitioned{LeftSize: leftSize, FirstAt: firstAt, Duration: duration}
}

// Reset implements NetworkModel.
func (m *Partitioned) Reset(seed int64) { m.rng = rand.New(rand.NewSource(seed)) }

// Validate implements NetworkValidator: the split must separate a non-empty
// side from a non-empty side (otherwise nothing ever partitions and runs
// would silently exercise the uniform base while claiming partitions), and
// windows must not overlap (Interval > 0 with Duration >= Interval means the
// network never heals, breaking the eventual-delivery assumption the model's
// buffer-until-heal behavior exists to honor).
func (m *Partitioned) Validate(n int) error {
	if m.LeftSize <= 0 || m.LeftSize >= n {
		return fmt.Errorf("sim: Partitioned.LeftSize=%d does not split a %d-process system", m.LeftSize, n)
	}
	if m.Interval > 0 && m.Duration >= m.Interval {
		return fmt.Errorf("sim: Partitioned windows overlap (Duration=%d >= Interval=%d): the network would never heal", m.Duration, m.Interval)
	}
	return nil
}

func (m *Partitioned) base() (model.Time, model.Time) {
	min, max := m.Min, m.Max
	if min == 0 && max == 0 {
		min, max = 10, 20
	}
	if max < min {
		max = min
	}
	return min, max
}

// healTime returns the end of the partition window active at t, or -1 if no
// partition is active at t.
func (m *Partitioned) healTime(t model.Time) model.Time {
	if m.Duration <= 0 || t < m.FirstAt {
		return -1
	}
	if m.Interval <= 0 {
		if t < m.FirstAt+m.Duration {
			return m.FirstAt + m.Duration
		}
		return -1
	}
	k := (t - m.FirstAt) / m.Interval
	onset := m.FirstAt + k*m.Interval
	if t < onset+m.Duration {
		return onset + m.Duration
	}
	return -1
}

// Delay implements NetworkModel.
func (m *Partitioned) Delay(from, to model.ProcID, sendTime model.Time) (model.Time, bool) {
	min, max := m.base()
	d := drawUniform(m.rng, min, max)
	crosses := (int(from) <= m.LeftSize) != (int(to) <= m.LeftSize)
	if crosses {
		if heal := m.healTime(sendTime); heal >= 0 {
			// Buffered at the partition boundary, released at heal time.
			return heal - sendTime + d, true
		}
	}
	return d, true
}

// MultiPartitioned generalizes Partitioned to k-side partitions: while a
// window is active the process set splits into Sides groups (process p is on
// side (p-1) mod Sides, so sides stay balanced and every side contains
// processes for any n >= Sides), and a message crossing sides is buffered
// until the window heals — the same store-and-forward semantics, decided at
// send time, as the two-sided model. Windows follow the same
// FirstAt/Duration/Interval schedule.
type MultiPartitioned struct {
	// Min and Max bound the base link delay (defaults 10 and 20 if both 0).
	Min, Max model.Time
	// Sides is the number of partition sides (>= 2).
	Sides int
	// FirstAt is when the first partition forms.
	FirstAt model.Time
	// Duration is how long each partition lasts before healing.
	Duration model.Time
	// Interval is the period between successive partition onsets
	// (0 = exactly one partition).
	Interval model.Time

	rng *rand.Rand
}

var _ NetworkModel = (*MultiPartitioned)(nil)

// NewMultiPartitioned returns a model with one k-side partition window
// [firstAt, firstAt+duration) over a default 10–20 tick base delay.
func NewMultiPartitioned(sides int, firstAt, duration model.Time) *MultiPartitioned {
	return &MultiPartitioned{Sides: sides, FirstAt: firstAt, Duration: duration}
}

// Reset implements NetworkModel.
func (m *MultiPartitioned) Reset(seed int64) { m.rng = rand.New(rand.NewSource(seed)) }

// Validate implements NetworkValidator: the split must produce at least two
// non-empty sides and the windows must heal (see Partitioned.Validate).
func (m *MultiPartitioned) Validate(n int) error {
	if m.Sides < 2 || m.Sides > n {
		return fmt.Errorf("sim: MultiPartitioned.Sides=%d does not split a %d-process system", m.Sides, n)
	}
	if m.Interval > 0 && m.Duration >= m.Interval {
		return fmt.Errorf("sim: MultiPartitioned windows overlap (Duration=%d >= Interval=%d): the network would never heal", m.Duration, m.Interval)
	}
	return nil
}

// Delay implements NetworkModel.
func (m *MultiPartitioned) Delay(from, to model.ProcID, sendTime model.Time) (model.Time, bool) {
	// Reuse Partitioned's base-delay defaults and window arithmetic through a
	// shim sharing the schedule fields; only the side assignment differs.
	shim := Partitioned{Min: m.Min, Max: m.Max, FirstAt: m.FirstAt, Duration: m.Duration, Interval: m.Interval}
	min, max := shim.base()
	d := drawUniform(m.rng, min, max)
	if (int(from)-1)%m.Sides != (int(to)-1)%m.Sides {
		if heal := shim.healTime(sendTime); heal >= 0 {
			return heal - sendTime + d, true
		}
	}
	return d, true
}

// Jittery models partial synchrony with asymmetric per-link latency classes
// and occasional spikes. Each directed link (from, to) is assigned a fixed
// latency class by hashing the pair — so p1→p2 and p2→p1 may differ — and
// every message additionally gets uniform jitter plus, with probability
// 1/SpikeEvery, a multiplicative spike (a slow retransmission, a GC pause,
// a routing flap). Delays are always finite: eventual delivery holds.
type Jittery struct {
	// Base is the floor latency of the fastest link class (default 5).
	Base model.Time
	// Classes are per-link latency additions; link (from, to) deterministically
	// uses Classes[(37·from + to) mod len(Classes)]. Default {0, 5, 15}.
	Classes []model.Time
	// Jitter is the per-message uniform jitter bound (default 5).
	Jitter model.Time
	// SpikeEvery makes ~1 in SpikeEvery messages spike (0 = never).
	SpikeEvery int
	// SpikeFactor multiplies the delay of a spiking message (default 8).
	SpikeFactor model.Time

	rng *rand.Rand
}

var _ NetworkModel = (*Jittery)(nil)

// NewJittery returns a jittery asymmetric model with sensible defaults and
// spikes on roughly one message in spikeEvery (0 disables spikes).
func NewJittery(spikeEvery int) *Jittery {
	return &Jittery{SpikeEvery: spikeEvery}
}

// Reset implements NetworkModel.
func (j *Jittery) Reset(seed int64) { j.rng = rand.New(rand.NewSource(seed)) }

// class returns the fixed latency class of the directed link from→to.
func (j *Jittery) class(from, to model.ProcID) model.Time {
	classes := j.Classes
	if len(classes) == 0 {
		classes = []model.Time{0, 5, 15}
	}
	return classes[(37*int(from)+int(to))%len(classes)]
}

// Delay implements NetworkModel.
func (j *Jittery) Delay(from, to model.ProcID, _ model.Time) (model.Time, bool) {
	base := j.Base
	if base <= 0 {
		base = 5
	}
	jitter := j.Jitter
	if jitter <= 0 {
		jitter = 5
	}
	d := base + j.class(from, to) + model.Time(j.rng.Int63n(int64(jitter)+1))
	if j.SpikeEvery > 0 && j.rng.Intn(j.SpikeEvery) == 0 {
		factor := j.SpikeFactor
		if factor <= 0 {
			factor = 8
		}
		d *= factor
	}
	return d, true
}

// presets names ready-made network environments so tests, benches, and CLI
// flags can say "partition" instead of hand-rolling delay parameters. Each
// call builds a fresh model value (the kernel seeds it), so presets are safe
// to use for many runs.
var presets = map[string]func() NetworkModel{
	// uniform: the historical default, delays in [10, 20].
	"uniform": func() NetworkModel { return NewUniform(10, 20) },
	// lan: tight low-latency links, delays in [1, 3].
	"lan": func() NetworkModel { return NewUniform(1, 3) },
	// wan: wide delay spread, delays in [20, 200].
	"wan": func() NetworkModel { return NewUniform(20, 200) },
	// fixed: constant delay 10 (latency measured in communication steps).
	"fixed": func() NetworkModel { return NewUniform(10, 10) },
	// partition: one 2000-tick partition at t = 500 splitting {p1, p2} off.
	"partition": func() NetworkModel { return NewPartitioned(2, 500, 2000) },
	// partition-flaky: a 500-tick partition every 2000 ticks, forever.
	"partition-flaky": func() NetworkModel {
		return &Partitioned{LeftSize: 2, FirstAt: 500, Duration: 500, Interval: 2000}
	},
	// jitter: asymmetric link classes, no spikes.
	"jitter": func() NetworkModel { return NewJittery(0) },
	// jitter-spiky: asymmetric link classes, ~1 in 20 messages spikes 8×.
	"jitter-spiky": func() NetworkModel { return NewJittery(20) },
	// partition-3way: one 2000-tick three-sided partition at t = 500.
	"partition-3way": func() NetworkModel { return NewMultiPartitioned(3, 500, 2000) },
}

// presetFaults holds the fault-schedule half of environment presets that have
// one (the churn-* presets registered by internal/sim/adversary). The factory
// takes the system size because schedules are per-process.
var presetFaults = map[string]func(n int) model.FaultModel{}

// RegisterPreset adds a named network preset to the registry shared by
// ecsim -net, the examples, and the experiment tables. Packages layered above
// the kernel (internal/sim/adversary) register their models from init, the
// same way image formats self-register. Duplicate names panic: presets are
// a global namespace and silent replacement would make two builds of the same
// flag value mean different environments.
func RegisterPreset(name string, mk func() NetworkModel) {
	if _, dup := presets[name]; dup {
		panic(fmt.Sprintf("sim: network preset %q already registered", name))
	}
	presets[name] = mk
}

// RegisterPresetFaults attaches a fault-schedule factory to a preset name, so
// environment presets can carry churn in addition to link behavior. If no
// network preset exists under the name, a Uniform default is registered so
// the name resolves everywhere a network preset does.
func RegisterPresetFaults(name string, mk func(n int) model.FaultModel) {
	if _, dup := presetFaults[name]; dup {
		panic(fmt.Sprintf("sim: fault preset %q already registered", name))
	}
	presetFaults[name] = mk
	if _, ok := presets[name]; !ok {
		presets[name] = func() NetworkModel { return NewUniform(10, 20) }
	}
}

// PresetFaults returns the fault-schedule factory attached to a preset, or
// nil for network-only presets. Callers pass the result (instantiated at
// their n) as Options.Faults.
func PresetFaults(name string) func(n int) model.FaultModel {
	return presetFaults[name]
}

// Preset returns a fresh instance of a named network environment.
func Preset(name string) (NetworkModel, error) {
	mk, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown network preset %q (want one of %v)", name, PresetNames())
	}
	return mk(), nil
}

// PresetFactory returns the factory of a named network environment, ready to
// assign to Options.Network. Each kernel built from the Options gets its own
// fresh instance.
func PresetFactory(name string) (NetworkFactory, error) {
	mk, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown network preset %q (want one of %v)", name, PresetNames())
	}
	return NetworkFactory(mk), nil
}

// PresetNames lists the available network presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
