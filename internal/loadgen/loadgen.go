// Package loadgen is the open-loop load harness for the replicated service:
// it drives a configurable Poisson arrival stream of client operations over
// many concurrent sessions into the deterministic simulation kernel (RunSim)
// and measures per-operation replication latency into log-bucketed
// histograms (Histogram). The live load measurement is the repo benchmark's
// live-kv workload (perfbench/).
//
// Open loop means arrival times are drawn up front from the seeded arrival
// process and never wait for completions — the harness measures the system's
// response to offered load, including overload, rather than the closed-loop
// rate the system itself permits (which hides queueing collapse: a slow
// system slows its own clients and the numbers look fine).
//
// Two latencies are recorded per operation, in kernel ticks from submission:
//
//   - VISIBILITY — submit → applied at EVERY correct process (first
//     application per process; the reading below).
//   - ORDER STABILITY — submit → the operation's last (re)application
//     anywhere. A reorder before the ETOB stabilization time rebuilds a
//     replica and re-applies its log, so an op's position is stable only
//     after its final re-application; with a stable leader the two
//     histograms coincide.
//
// Reading under churn: a process that restarts re-applies everything after
// reviving, so first-application times are per-incarnation approximations;
// operations whose submission raced a crash may never resolve and are
// reported in Result.Unresolved rather than silently dropped — a nonzero
// Unresolved under a fault-free preset means queue collapse, the exact
// condition the open loop exists to expose.
package loadgen

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	_ "repro/internal/sim/adversary" // registers the named network presets
	"repro/internal/smr"
)

// The replica count and the settle budget are fixed: the harness measures a
// three-replica stack, and a run may keep going settle ticks past the last
// arrival before unresolved operations are declared stuck.
const (
	procs  = 3
	settle = model.Time(60_000)
)

// Config parameterizes one load run.
type Config struct {
	// Ops is the total number of operations (default 10_000; the harness is
	// sized for >= 10^6).
	Ops int
	// Rate is the mean arrival rate in operations per kernel tick.
	// Default 0.2.
	Rate float64
	// Sessions is the number of concurrent client sessions; each session has
	// replica affinity (session mod the replica count), like the front
	// door's rendezvous ranking. Default 64.
	Sessions int
	// Seed seeds the arrival process, the network model, and the
	// retransmission jitter. Default 1.
	Seed int64
	// Preset names the sim network environment ("uniform" or "" for the
	// default clean network, "lossy", "hostile", ... — any registered
	// sim preset; fault schedules attached to the preset apply too).
	Preset string
	// Batch configures ETOB broadcast batching for the replica stack; the
	// zero value runs unbatched.
	Batch etob.BatchOptions
}

func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 10_000
	}
	if c.Rate <= 0 {
		c.Rate = 0.2
	}
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one load run's measurements.
type Result struct {
	// Ops is the number of operations offered; Resolved of them became
	// visible at every correct process, Unresolved did not (queue collapse,
	// or — under churn presets — submissions lost to a down window).
	Ops        int
	Resolved   int
	Unresolved int
	// Visible and Stable are the two latency histograms in ticks; see the
	// package comment.
	Visible *Histogram
	Stable  *Histogram
	// WallMS is the run's wall-clock cost; StepsPerSec the kernel event
	// rate; OpsPerSec resolved operations per wall second; AllocsPerOp heap
	// allocations per offered operation.
	WallMS      float64
	StepsPerSec float64
	OpsPerSec   float64
	AllocsPerOp float64
	// MessagesSent counts protocol messages on the wire — the direct view of
	// what batching amortizes.
	MessagesSent int64
}

// opCmd encodes operation i as a state-machine command ("o<i>", applied to an
// append-only log machine).
func opCmd(i int) string { return "o" + strconv.Itoa(i) }

func opOf(cmd string) (int, bool) {
	if len(cmd) < 2 || cmd[0] != 'o' {
		return 0, false
	}
	i, err := strconv.Atoi(cmd[1:])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// tracker accumulates per-operation apply times. Indexing is flat
// (op*n + proc-1); times are int64 ticks.
type tracker struct {
	n          int
	submitAt   []int64
	firstApply []int64
	lastApply  []int64
	appliedBy  []int32 // how many distinct procs have applied op i
	visibleAt  []int64
	resolved   int
}

func newTracker(ops, n int) *tracker {
	tr := &tracker{
		n:          n,
		submitAt:   make([]int64, ops),
		firstApply: make([]int64, ops*n),
		lastApply:  make([]int64, ops),
		appliedBy:  make([]int32, ops),
		visibleAt:  make([]int64, ops),
	}
	for i := range tr.submitAt {
		tr.submitAt[i] = -1
		tr.lastApply[i] = -1
		tr.visibleAt[i] = -1
	}
	for i := range tr.firstApply {
		tr.firstApply[i] = -1
	}
	return tr
}

func (tr *tracker) submit(i int, t int64) {
	if i < len(tr.submitAt) && tr.submitAt[i] < 0 {
		tr.submitAt[i] = t
	}
}

func (tr *tracker) apply(i int, p model.ProcID, t int64) {
	if i >= len(tr.appliedBy) {
		return
	}
	if t > tr.lastApply[i] {
		tr.lastApply[i] = t
	}
	slot := i*tr.n + int(p) - 1
	if tr.firstApply[slot] >= 0 {
		return
	}
	tr.firstApply[slot] = t
	tr.appliedBy[i]++
	if int(tr.appliedBy[i]) == tr.n {
		tr.visibleAt[i] = t // the last first-application completes visibility
		tr.resolved++
	}
}

// result folds the tracker into histograms.
func (tr *tracker) result() (visible, stable *Histogram, unresolved int) {
	visible, stable = &Histogram{}, &Histogram{}
	for i, sub := range tr.submitAt {
		if sub < 0 || tr.visibleAt[i] < 0 {
			unresolved++
			continue
		}
		visible.Record(tr.visibleAt[i] - sub)
		stable.Record(tr.lastApply[i] - sub)
	}
	return visible, stable, unresolved
}

// simObserver feeds the tracker from kernel events.
type simObserver struct {
	sim.NopObserver
	tr *tracker
}

func (o *simObserver) OnInput(p model.ProcID, t model.Time, v any) {
	if c, ok := v.(smr.Command); ok {
		if i, isOp := opOf(c.Cmd); isOp {
			o.tr.submit(i, int64(t))
		}
	}
}

func (o *simObserver) OnOutput(p model.ProcID, t model.Time, v any) {
	a, ok := v.(smr.Applied)
	if !ok {
		return
	}
	for _, id := range a.New {
		if cmd, isCmd := smr.DecodeCommand(id); isCmd {
			if i, isOp := opOf(cmd); isOp {
				o.tr.apply(i, p, int64(t))
			}
		}
	}
}

// stackFactory builds the full Eventual replica stack under test.
func stackFactory(cfg Config) model.AutomatonFactory {
	return core.ReplicaStackWith(core.Eventual, core.StackOptions{
		Machine:    smr.LogFactory,
		Retransmit: &retransmit.Options{Seed: cfg.Seed},
		Batch:      cfg.Batch,
	})
}

// RunSim executes one open-loop load run on the deterministic simulation
// kernel and returns its measurements. Identical configs produce identical
// latency histograms (wall-clock fields aside).
func RunSim(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	opts := sim.Options{Seed: cfg.Seed, MaxTime: model.TimeNever}
	if cfg.Preset != "" && cfg.Preset != "uniform" {
		nf, err := sim.PresetFactory(cfg.Preset)
		if err != nil {
			return Result{}, err
		}
		opts.Network = nf
		if mkFaults := sim.PresetFaults(cfg.Preset); mkFaults != nil {
			opts.Faults = mkFaults(procs)
		}
	}
	fp := model.NewFailurePattern(procs)
	det := fd.NewOmegaStable(fp, 1)
	k := sim.New(fp, det, stackFactory(cfg), opts)
	tr := newTracker(cfg.Ops, procs)
	k.SetObserver(&simObserver{tr: tr})

	// Draw the whole open-loop arrival schedule up front: Poisson arrivals
	// (exponential interarrival times at Rate per tick), session affinity
	// deciding the replica, per-replica arrival ticks made strictly
	// monotone so submission order is well defined.
	rng := rand.New(rand.NewSource(cfg.Seed))
	lastAt := make([]model.Time, procs+1)
	at := 100.0
	var horizon model.Time
	for i := 0; i < cfg.Ops; i++ {
		at += rng.ExpFloat64() / cfg.Rate
		session := rng.Intn(cfg.Sessions)
		p := model.ProcID(session%procs + 1)
		tick := model.Time(math.Ceil(at))
		if tick <= lastAt[p] {
			tick = lastAt[p] + 1
		}
		lastAt[p] = tick
		if tick > horizon {
			horizon = tick
		}
		k.ScheduleInput(p, tick, smr.Command{Cmd: opCmd(i)})
	}

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	k.RunUntil(horizon+settle, func(k *sim.Kernel) bool { return tr.resolved == cfg.Ops })
	wall := time.Since(start)
	goruntime.ReadMemStats(&after)

	visible, stable, unresolved := tr.result()
	res := Result{
		Ops:          cfg.Ops,
		Resolved:     tr.resolved,
		Unresolved:   unresolved,
		Visible:      visible,
		Stable:       stable,
		WallMS:       float64(wall.Nanoseconds()) / 1e6,
		MessagesSent: k.MessagesSent(),
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(cfg.Ops),
	}
	if sec := wall.Seconds(); sec > 0 {
		res.StepsPerSec = float64(k.Steps()) / sec
		res.OpsPerSec = float64(tr.resolved) / sec
	}
	return res, nil
}
