package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/retransmit"
	"repro/internal/sim"
	_ "repro/internal/sim/adversary" // registers the hostile preset
	"repro/internal/smr"
)

// simSpec is a simulated workload: a seeded open loop of KV writes and local
// reads, in simulated time, into the stack node.New runs.
type simSpec struct {
	n        int
	preset   string     // sim network and fault preset; "" is the clean uniform network
	writes   int        // writes per run; reads come on top
	rate     float64    // op arrivals (reads and writes) per tick
	readFrac float64    // share of arrivals that are reads
	keys     int        // keyspace size
	upMargin model.Time // churn only: send an op only to a replica that stays up this long
	settle   model.Time // ticks past the last arrival before an unresolved write counts as failed
}

var (
	// simHistory grows one history to a few thousand writes on a clean
	// network under a stable leader: per-op cost here rises with history
	// length.
	simHistory = simSpec{n: 3, writes: 2000, rate: 0.25, readFrac: 0.3, keys: 256, settle: 20000}
	// simHostile runs a short history through heavy message traffic: the
	// hostile preset (leader starvation over ~10% loss over churn) at n=5.
	// Writes go only to replicas that stay up for upMargin ticks, so none is
	// lost with the state of a replica that restarts before its envelopes
	// are acknowledged.
	simHostile = simSpec{n: 5, preset: "hostile", writes: 400, rate: 0.1, readFrac: 0.3, keys: 256,
		upMargin: 1500, settle: 60000}
)

// convergeTicks bounds the untimed run after the last write resolves, in
// which replicas must reach identical sequences.
const convergeTicks = 20000

// simOp is one generated operation: a write (index >= 0) or a read.
type simOp struct {
	at    model.Time
	p     model.ProcID
	key   int
	write int // write index, -1 for a read
	cmd   string
}

// simInputs is everything a seed determines: the op schedule and the
// environment.
type simInputs struct {
	spec     simSpec
	seed     int64
	ops      []simOp // in arrival order
	writeKey []int   // key of write i
	reads    int
	horizon  model.Time
	network  sim.NetworkFactory
	faults   model.FaultModel
}

func genSimInputs(spec simSpec, seed int64) (*simInputs, error) {
	in := &simInputs{spec: spec, seed: seed}
	if spec.preset != "" {
		nf, err := sim.PresetFactory(spec.preset)
		if err != nil {
			return nil, err
		}
		in.network = nf
		if mk := sim.PresetFaults(spec.preset); mk != nil {
			in.faults = mk(spec.n)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	lastAt := make([]model.Time, spec.n+1)
	at := 100.0
	for len(in.writeKey) < spec.writes {
		at += rng.ExpFloat64() / spec.rate
		tick := model.Time(math.Ceil(at))
		isRead := rng.Float64() < spec.readFrac
		key := rng.Intn(spec.keys)
		up := in.upReplicas(tick, isRead)
		if len(up) == 0 {
			return nil, fmt.Errorf("no replica up at tick %d", tick)
		}
		p := up[rng.Intn(len(up))]
		if isRead {
			in.ops = append(in.ops, simOp{at: tick, p: p, key: key, write: -1})
			in.reads++
			continue
		}
		// Per-replica write ticks are strictly increasing, so each replica's
		// submission order is well defined.
		if tick <= lastAt[p] {
			tick = lastAt[p] + 1
		}
		lastAt[p] = tick
		idx := len(in.writeKey)
		in.writeKey = append(in.writeKey, key)
		in.ops = append(in.ops, simOp{at: tick, p: p, key: key, write: idx, cmd: writeCmd(key, idx)})
		if tick > in.horizon {
			in.horizon = tick
		}
	}
	in.horizon += spec.settle
	return in, nil
}

// upReplicas lists the replicas an op arriving at t may go to: up at t and,
// for a write, continuously up for the next upMargin ticks.
func (in *simInputs) upReplicas(t model.Time, isRead bool) []model.ProcID {
	var out []model.ProcID
	for _, p := range model.Procs(in.spec.n) {
		if in.faults == nil {
			out = append(out, p)
			continue
		}
		if !in.faults.Up(p, t) {
			continue
		}
		if !isRead {
			end := t + in.spec.upMargin
			if !in.faults.Up(p, end) || restartIn(in.faults.Restarts(p), t, end) {
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

func restartIn(restarts []model.Time, from, to model.Time) bool {
	for _, r := range restarts {
		if r > from && r <= to {
			return true
		}
	}
	return false
}

// retransmitOptions mirrors node.New's default retransmission layer.
func (in *simInputs) retransmitOptions() retransmit.Options {
	return retransmit.Options{Seed: in.seed, GiveUpTicks: node.DefaultGiveUpTicks}
}

// build constructs a kernel over the stack and schedules every write: the
// work setup_s measures.
func (in *simInputs) build(factory model.AutomatonFactory, o *simObserver) *sim.Kernel {
	fp := model.NewFailurePattern(in.spec.n)
	k := sim.New(fp, fd.NewOmegaStable(fp, 1), factory, sim.Options{
		Seed:    in.seed,
		Network: in.network,
		Faults:  in.faults,
		MaxTime: in.horizon + convergeTicks,
	})
	k.SetObserver(o)
	for i := range in.ops {
		if op := &in.ops[i]; op.write >= 0 {
			k.ScheduleInput(op.p, op.at, smr.Command{Cmd: op.cmd})
		}
	}
	return k
}

func (in *simInputs) plainStack() model.AutomatonFactory {
	rt := in.retransmitOptions()
	return core.ReplicaStackWith(core.Eventual, core.StackOptions{Machine: smr.KVFactory, Retransmit: &rt})
}

// simObserver tracks every write from input to visibility at all replicas,
// in ticks and in wall time, and counts what the stack sends.
type simObserver struct {
	sim.NopObserver
	n          int
	epoch      time.Time
	inTick     []model.Time
	inWall     []time.Duration
	visTick    []model.Time
	visWall    []time.Duration
	appliedBy  []bool // write*n + p-1
	count      []int32
	resolved   int
	applies    int64
	updateIDs  int64
	promoteIDs int64
}

func newSimObserver(n, writes int) *simObserver {
	o := &simObserver{
		n:         n,
		epoch:     time.Now(),
		inTick:    make([]model.Time, writes),
		inWall:    make([]time.Duration, writes),
		visTick:   make([]model.Time, writes),
		visWall:   make([]time.Duration, writes),
		appliedBy: make([]bool, writes*n),
		count:     make([]int32, writes),
	}
	for i := range o.inTick {
		o.inTick[i], o.visTick[i] = -1, -1
	}
	return o
}

func (o *simObserver) OnInput(_ model.ProcID, t model.Time, v any) {
	if c, ok := v.(smr.Command); ok {
		if i, ok := writeIndex(c.Cmd); ok && i < len(o.inTick) {
			o.inTick[i], o.inWall[i] = t, time.Since(o.epoch)
		}
	}
}

func (o *simObserver) OnOutput(p model.ProcID, t model.Time, v any) {
	a, ok := v.(smr.Applied)
	if !ok {
		return
	}
	o.applies += int64(len(a.New))
	for _, id := range a.New {
		i, ok := writeIndex(id)
		if !ok || i >= len(o.count) || o.appliedBy[i*o.n+int(p)-1] {
			continue
		}
		o.appliedBy[i*o.n+int(p)-1] = true
		if o.count[i]++; int(o.count[i]) == o.n {
			o.visTick[i], o.visWall[i] = t, time.Since(o.epoch)
			o.resolved++
		}
	}
}

func (o *simObserver) OnSend(_ model.Time, m sim.Message) {
	d, ok := m.Payload.(retransmit.Data)
	if !ok {
		return
	}
	switch x := d.Payload.(type) {
	case etob.UpdateMsg:
		o.updateIDs += int64(x.CG.Len())
	case etob.PromoteMsg:
		o.promoteIDs += int64(len(x.Seq))
	}
}

// tickLatencies returns input-to-visible ticks per resolved write, in write
// order: the protocol's latency, a pure function of the seed.
func (o *simObserver) tickLatencies() []model.Time {
	out := make([]model.Time, 0, len(o.visTick))
	for i, v := range o.visTick {
		if v >= 0 {
			out = append(out, v-o.inTick[i])
		}
	}
	return out
}

// simRep is one run of a simulated workload.
type simRep struct {
	setup   time.Duration
	wall    time.Duration // RunUntil calls only; reads excluded
	cpu     time.Duration
	steps   int64 // kernel steps and messages up to the last write's visibility
	msgs    int64
	k       *sim.Kernel
	obs     *simObserver
	prof    *profiler
	readLat []float64 // ms
	snapLat []float64 // ms, Snapshot alone
	badRead int
	seqs    [][]string // final delivered sequence per replica
	snaps   []string
}

// runSimRep builds a kernel (timed as setup), runs every write to
// visibility with reads interleaved between kernel steps, then runs untimed
// until the replicas agree. prof non-nil selects the traced stack.
func runSimRep(in *simInputs, prof *profiler) *simRep {
	o := newSimObserver(in.spec.n, len(in.writeKey))
	factory := in.plainStack()
	if prof != nil {
		factory = tracedStack(prof, in.retransmitOptions())
	}
	t0 := time.Now()
	k := in.build(factory, o)
	r := &simRep{setup: time.Since(t0), k: k, obs: o, prof: prof}

	writes := len(in.writeKey)
	stop := func(*sim.Kernel) bool { return o.resolved == writes }
	runTo := func(t model.Time) {
		if o.resolved == writes {
			return
		}
		t0 := time.Now()
		prof.start()
		k.RunUntil(t, stop)
		prof.stop()
		r.wall += time.Since(t0)
	}
	cpu0 := cpuTime()
	for i := range in.ops {
		op := &in.ops[i]
		if op.write >= 0 {
			continue
		}
		runTo(op.at)
		r.read(in, op)
	}
	runTo(in.horizon)
	r.cpu = cpuTime() - cpu0
	r.steps, r.msgs = k.Steps(), k.MessagesSent()

	for i := 0; i < convergeTicks/100 && !r.agree(); i++ {
		k.Run(k.Now() + 100)
	}
	return r
}

// read serves one read from a replica's machine state between kernel
// steps, the node's read path without the HTTP hop.
func (r *simRep) read(in *simInputs, op *simOp) {
	_, rep, _ := stackLayers(r.k.Automaton(op.p))
	t0 := time.Now()
	snap := rep.Snapshot()
	t1 := time.Now()
	v, found := readValue(snap, keyName(op.key))
	r.readLat = append(r.readLat, ms(time.Since(t0)))
	r.snapLat = append(r.snapLat, ms(t1.Sub(t0)))
	if found && !validRead(in.writeKey, op.key, v) {
		r.badRead++
	}
}

// agree records every replica's sequence and snapshot and reports whether
// they are all identical.
func (r *simRep) agree() bool {
	n := r.k.N()
	r.seqs, r.snaps = make([][]string, n), make([]string, n)
	for i, p := range model.Procs(n) {
		_, rep, e := stackLayers(r.k.Automaton(p))
		r.seqs[i], r.snaps[i] = e.Delivered(), rep.Snapshot()
	}
	for i := 1; i < n; i++ {
		if r.snaps[i] != r.snaps[0] || !slices.Equal(r.seqs[i], r.seqs[0]) {
			return false
		}
	}
	return true
}

// check verifies the run's outputs: replicas agree, the agreed sequence
// holds every resolved write exactly once, the snapshot is that sequence
// applied to a fresh KV store, and every read saw a value written to its key.
func (r *simRep) check(in *simInputs, out *outcome) {
	if !r.agree() {
		out.fail("replicas still disagree %d ticks after the last write resolved", convergeTicks)
	}
	seq := r.seqs[0]
	seen := make(map[int]bool, len(seq))
	kv := smr.NewKVStore()
	for _, id := range seq {
		cmd, ok := smr.DecodeCommand(id)
		i, ok2 := writeIndex(cmd)
		if !ok || !ok2 || i >= len(in.writeKey) || cmd != writeCmd(in.writeKey[i], i) || seen[i] {
			out.fail("delivered sequence holds unexpected or repeated entry %q", id)
			return
		}
		seen[i] = true
		kv.Apply(cmd)
	}
	if len(seen) != r.obs.resolved {
		out.fail("delivered sequence holds %d writes, %d resolved", len(seen), r.obs.resolved)
	}
	if kv.Snapshot() != r.snaps[0] {
		out.fail("replica snapshot differs from its delivered sequence applied in order")
	}
	if r.badRead > 0 {
		out.fail("%d reads returned a value never written to their key", r.badRead)
	}
}

func (r *simRep) visibleWallMS() []float64 {
	o := r.obs
	out := make([]float64, 0, len(o.visWall))
	for i, v := range o.visTick {
		if v >= 0 {
			out = append(out, ms(o.visWall[i]-o.inWall[i]))
		}
	}
	return out
}

// stackCounters sums the retransmission and replica counters over replicas.
func (r *simRep) stackCounters() (resends, dupes, rebuilds int64) {
	for _, p := range model.Procs(r.k.N()) {
		rt, rep, _ := stackLayers(r.k.Automaton(p))
		resends += rt.Resends()
		dupes += rt.Duplicates()
		rebuilds += int64(rep.Rebuilds())
	}
	return
}

// A run measures distinct sub-workloads of its seed one after another and
// reports medians over them, so that its figures do not hang on one draw of
// arrival times, keys and losses. It measures at least minReps of them and
// builds the first one's kernel setupSamples extra times for setup_s.
const (
	minReps      = 5
	setupSamples = 101
)

// subSeed derives the seed of a run's i-th sub-workload.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// account checks one run's outputs and adds its ops to the totals.
func (r *simRep) account(in *simInputs, out *outcome) {
	r.check(in, out)
	unresolved := len(in.writeKey) - r.obs.resolved
	out.attempted += int64(len(in.writeKey) + in.reads)
	out.failed += int64(unresolved + r.badRead)
	if in.spec.preset == "" && unresolved > 0 {
		out.fail("%d writes unresolved on a clean network", unresolved)
	}
}

// runSim runs a simulated workload for the budget and reports its metrics.
func runSim(spec simSpec, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	out := &outcome{correct: true, metrics: map[string]float64{}}
	if traced {
		return out, traceSim(spec, seed, budget, out)
	}
	in, err := genSimInputs(spec, subSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		t0 := time.Now()
		in.build(in.plainStack(), newSimObserver(spec.n, len(in.writeKey)))
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var opsPerS, visP50, readP50, cpuPerOp []float64
	deadline := time.Now().Add(budget)
	for rep := 0; ; rep++ {
		if rep > 0 {
			if in, err = genSimInputs(spec, subSeed(seed, rep)); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		r := runSimRep(in, nil)
		r.account(in, out)
		setups = append(setups, r.setup.Seconds())
		vis := r.visibleWallMS()
		opsPerS = append(opsPerS, float64(r.obs.resolved)/r.wall.Seconds())
		visP50 = append(visP50, quantile(vis, 0.5))
		readP50 = append(readP50, quantile(r.readLat, 0.5))
		cpuPerOp = append(cpuPerOp, us(r.cpu)/float64(len(in.writeKey)+in.reads))
		r = nil
		runtime.GC()
		if rep+1 >= minReps && time.Now().Add(time.Since(t0)).After(deadline) {
			break
		}
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = median(opsPerS)
	m["visible_p50_ms"] = median(visP50)
	m["read_p50_ms"] = median(readP50)
	m["cpu_us_per_op"] = median(cpuPerOp)
	m["rss_mb_peak"] = rssPeakMB()
	return out, nil
}

// traceSim runs each sub-workload twice, untraced and traced, alternating
// which goes first so that the overhead figure carries no order effect.
// Counts come from the first untraced run, self times from the traced runs,
// and every traced run must reproduce its untraced twin's ticks, counts and
// sequences exactly.
func traceSim(spec simSpec, seed int64, budget time.Duration, out *outcome) error {
	var base *simRep
	var baseIn *simInputs
	var overhead, snapLat, visP90, readP90 []float64
	var self [numLayers]time.Duration
	var wallSum time.Duration
	tracedWrites := 0
	deadline := time.Now().Add(budget)
	for pair := 0; ; pair++ {
		in, err := genSimInputs(spec, subSeed(seed, pair))
		if err != nil {
			return err
		}
		t0 := time.Now()
		var plain, traced *simRep
		if pair%2 == 0 {
			plain = runSimRep(in, nil)
			traced = runSimRep(in, newProfiler())
		} else {
			traced = runSimRep(in, newProfiler())
			plain = runSimRep(in, nil)
		}
		plain.account(in, out)
		traced.account(in, out)
		if !sameRun(plain, traced) {
			out.fail("traced stack diverged from the plain stack on sub-workload %d", pair)
		}
		overhead = append(overhead, traced.wall.Seconds()/plain.wall.Seconds()-1)
		visP90 = append(visP90, quantile(plain.visibleWallMS(), 0.9))
		readP90 = append(readP90, quantile(plain.readLat, 0.9))
		for l, d := range traced.prof.self {
			self[l] += d
		}
		wallSum += traced.wall
		tracedWrites += len(in.writeKey)
		snapLat = append(snapLat, traced.snapLat...)
		if pair == 0 {
			base, baseIn = plain, in
		}
		runtime.GC()
		if pair+1 >= 2 && time.Now().Add(time.Since(t0)).After(deadline) {
			break
		}
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if gap := math.Abs(float64(total-wallSum)) / float64(wallSum); gap > 0.01 {
		out.fail("layer self times sum to %v, traced wall time is %v", total, wallSum)
	}

	perOp := func(l layer) float64 { return us(self[l]) / float64(tracedWrites) }
	writes := float64(len(baseIn.writeKey))
	resends, dupes, rebuilds := base.stackCounters()
	ticks := make([]float64, 0, len(baseIn.writeKey))
	for _, t := range base.obs.tickLatencies() {
		ticks = append(ticks, float64(t))
	}
	m := out.metrics
	m["sim.steps_per_op"] = float64(base.steps) / writes
	m["sim.msgs_per_op"] = float64(base.msgs) / writes
	m["sim.self_us_per_op"] = perOp(layerSim)
	m["retransmit.self_us_per_op"] = perOp(layerRetransmit)
	m["retransmit.resends_per_op"] = float64(resends) / writes
	m["retransmit.duplicates_per_op"] = float64(dupes) / writes
	m["etob.update_us_per_op"] = perOp(layerEtobUpdate)
	m["etob.promote_us_per_op"] = perOp(layerEtobPromote)
	m["etob.tick_us_per_op"] = perOp(layerEtobTick)
	m["etob.input_us_per_op"] = perOp(layerEtobInput)
	m["etob.update_ids_per_op"] = float64(base.obs.updateIDs) / writes
	m["etob.promote_ids_per_op"] = float64(base.obs.promoteIDs) / writes
	m["etob.visible_p50_ticks"] = quantile(ticks, 0.5)
	m["etob.visible_p90_ticks"] = quantile(ticks, 0.9)
	m["smr.reconcile_us_per_op"] = perOp(layerSMR)
	m["smr.apply_us_per_op"] = perOp(layerApply)
	m["smr.applies_per_op"] = float64(base.obs.applies) / (writes * float64(spec.n))
	m["smr.rebuilds"] = float64(rebuilds)
	m["smr.snapshot_ms"] = median(snapLat)
	m["bench.trace_overhead_frac"] = median(overhead)
	m["bench.visible_p90_ms"] = median(visP90)
	m["bench.read_p90_ms"] = median(readP90)
	return nil
}

// sameRun reports whether two runs of the same inputs behaved identically:
// per-write tick latencies, step and message counts, final sequences and
// snapshots.
func sameRun(a, b *simRep) bool {
	if a.steps != b.steps || a.msgs != b.msgs {
		return false
	}
	if !slices.Equal(a.obs.tickLatencies(), b.obs.tickLatencies()) {
		return false
	}
	a.agree()
	b.agree()
	for i := range a.seqs {
		if !slices.Equal(a.seqs[i], b.seqs[i]) || a.snaps[i] != b.snaps[i] {
			return false
		}
	}
	return true
}
