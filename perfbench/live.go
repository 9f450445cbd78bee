package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/smr"
)

// liveSpec is the live workload: an open loop of KV writes and reads at a
// fixed rate into three in-process node.New replicas over loopback TCP and
// HTTP, with cmd/ecnode's defaults (2 ms tick and heartbeat).
type liveSpec struct {
	rate     float64 // op arrivals per second, reads and writes
	readFrac float64
	keys     int // keyspace, preloaded during setup
}

// liveKV runs at a quarter of the rate at which a cluster with 256 preloaded
// keys was seen to collapse (200 ops/s), so no backlog grows. The keyspace is
// kept small: the leader promotes its whole sequence every tick, and with 256
// keys that kept the event loops busy enough for the latencies to follow the
// host's load from run to run.
var liveKV = liveSpec{rate: 50, readFrac: 0.3, keys: 64}

const (
	liveN          = 3
	clients        = 2 // request-issuing goroutines, one keep-alive connection each
	requestTimeout = 5 * time.Second
	visibleTimeout = 30 * time.Second
	probeEvery     = 10 * time.Millisecond
	preloadRound   = 16
	// degradedAfter replaces the node's default read-only window, the 20 ms
	// leader timeout: on a shared two-core host an event loop can miss its
	// peers' heartbeats that long without any partition, and the replica then
	// refuses writes with 503.
	degradedAfter = 250 * time.Millisecond
)

// liveObserver is the benchmark's runtime.Options.Observer: it stamps each
// write's submission at its origin and its application at every replica.
type liveObserver struct {
	sim.NopObserver
	n         int
	mu        sync.Mutex
	submitAt  []time.Time // origin's BroadcastInput
	visAt     []time.Time // last replica's first application
	appliedBy []bool      // write*n + p-1
	count     []int32
	visible   int
	applies   int64
	notify    chan struct{} // signalled when a write becomes visible

	updateIDs  atomic.Int64
	promoteIDs atomic.Int64
}

func newLiveObserver(n, writes int) *liveObserver {
	return &liveObserver{
		n:         n,
		submitAt:  make([]time.Time, writes),
		visAt:     make([]time.Time, writes),
		appliedBy: make([]bool, writes*n),
		count:     make([]int32, writes),
		notify:    make(chan struct{}, 1),
	}
}

func (o *liveObserver) OnOutput(p model.ProcID, _ model.Time, v any) {
	switch x := v.(type) {
	case model.BroadcastInput:
		now := time.Now()
		if i, ok := writeIndex(x.ID); ok && i < len(o.submitAt) {
			o.mu.Lock()
			o.submitAt[i] = now
			o.mu.Unlock()
		}
	case smr.Applied:
		now := time.Now()
		o.mu.Lock()
		defer o.mu.Unlock()
		o.applies += int64(len(x.New))
		for _, id := range x.New {
			i, ok := writeIndex(id)
			if !ok || i >= len(o.count) || o.appliedBy[i*o.n+int(p)-1] {
				continue
			}
			o.appliedBy[i*o.n+int(p)-1] = true
			if o.count[i]++; int(o.count[i]) == o.n {
				o.visAt[i] = now
				o.visible++
				select {
				case o.notify <- struct{}{}:
				default:
				}
			}
		}
	}
}

func (o *liveObserver) OnSend(_ model.Time, m sim.Message) {
	d, ok := m.Payload.(retransmit.Data)
	if !ok {
		return
	}
	switch x := d.Payload.(type) {
	case etob.UpdateMsg:
		o.updateIDs.Add(int64(x.CG.Len()))
	case etob.PromoteMsg:
		o.promoteIDs.Add(int64(len(x.Seq)))
	}
}

// wait blocks until done, which it calls with the observer's lock held,
// returns true, or until the timeout passes.
func (o *liveObserver) wait(done func() bool, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		o.mu.Lock()
		ok := done()
		o.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-o.notify:
		case <-timer.C:
			return false
		}
	}
}

// applyTimer wraps the KV machine to time Apply across the event loops.
type applyTimer struct{ total atomic.Int64 }

type timedLiveKV struct {
	smr.StateMachine
	t *applyTimer
}

func (m timedLiveKV) Apply(cmd string) string {
	t0 := time.Now()
	r := m.StateMachine.Apply(cmd)
	m.t.total.Add(int64(time.Since(t0)))
	return r
}

func (t *applyTimer) factory() smr.StateMachine {
	return timedLiveKV{StateMachine: smr.NewKVStore(), t: t}
}

// liveCluster is three running replicas and the clients driving them.
type liveCluster struct {
	nodes   []*node.Node
	obs     *liveObserver
	clients []*http.Client // client w talks to nodes[w]
}

func reservePeers(n int) (map[model.ProcID]string, error) {
	peers := make(map[model.ProcID]string, n)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for _, p := range model.Procs(n) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		peers[p] = ln.Addr().String()
	}
	return peers, nil
}

func bootCluster(lo *liveObserver, machine smr.MachineFactory) (*liveCluster, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		peers, err := reservePeers(liveN)
		if err != nil {
			return nil, err
		}
		c := &liveCluster{obs: lo}
		for _, p := range model.Procs(liveN) {
			own := make(map[model.ProcID]string, len(peers))
			for q, addr := range peers {
				own[q] = addr
			}
			nd, err := node.New(node.Config{ID: p, Peers: own, Machine: machine,
				Runtime: runtime.Options{Observer: lo}, DegradedAfter: degradedAfter})
			if err != nil {
				lastErr = err
				break
			}
			c.nodes = append(c.nodes, nd)
		}
		if len(c.nodes) == liveN {
			for w := 0; w < clients; w++ {
				c.clients = append(c.clients, &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
					MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
			}
			return c, nil
		}
		c.kill()
	}
	return nil, fmt.Errorf("boot cluster: %w", lastErr)
}

// kill stops every replica and waits for its goroutines to exit.
func (c *liveCluster) kill() {
	for _, nd := range c.nodes {
		nd.Kill()
	}
	for _, cl := range c.clients {
		cl.CloseIdleConnections()
	}
}

func (c *liveCluster) write(w, key, idx int) error {
	u := c.nodes[w].URL() + "/update?cmd=" + url.QueryEscape(writeCmd(key, idx))
	resp, err := c.clients[w].Post(u, "text/plain", nil)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("update answered %s", resp.Status)
	}
	return nil
}

func (c *liveCluster) read(w, key int) (value string, found bool, err error) {
	resp, err := c.clients[w].Get(c.nodes[w].URL() + "/read?key=" + url.QueryEscape(keyName(key)))
	if err != nil {
		return "", false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return "", false, err
	case resp.StatusCode == http.StatusNotFound:
		return "", false, nil
	case resp.StatusCode != http.StatusOK:
		return "", false, fmt.Errorf("read answered %s", resp.Status)
	}
	return strings.TrimSpace(string(body)), true, nil
}

// snapshots fetches GET /snapshot from every replica.
func (c *liveCluster) snapshots() ([]string, error) {
	cl := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{DisableKeepAlives: true}}
	var out []string
	for _, nd := range c.nodes {
		resp, err := cl.Get(nd.URL() + "/snapshot")
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, strings.TrimSpace(string(body)))
	}
	return out, nil
}

// setupCluster boots a cluster and writes every key of the keyspace once
// (write index = key), in rounds of preloadRound writes split over the two
// clients, each round waiting until its writes are applied everywhere: the
// work setup_s measures. Rounds keep the warm-up from overloading the event
// loops, which would delay heartbeats past the degraded-mode window and make
// replicas refuse writes.
func setupCluster(spec liveSpec, writes int, machine smr.MachineFactory) (*liveCluster, time.Duration, error) {
	t0 := time.Now()
	lo := newLiveObserver(liveN, writes)
	c, err := bootCluster(lo, machine)
	if err != nil {
		return nil, 0, err
	}
	for from := 0; from < spec.keys; from += preloadRound {
		to := min(from+preloadRound, spec.keys)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := from + w; j < to; j += clients {
					if err := c.write(w, j, j); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
		if !lo.wait(func() bool { return lo.visible >= to }, visibleTimeout) {
			c.kill()
			return nil, 0, errors.New("preload not applied everywhere in time")
		}
	}
	return c, time.Since(t0), nil
}

// liveOp is one scheduled request.
type liveOp struct {
	due    time.Duration // from the window start
	worker int
	key    int
	write  int // write index, -1 for a read
}

// genLiveOps draws a seeded schedule for one window: rate×window ops at
// Poisson arrival times conditioned on their count (sorted uniform instants),
// exactly readFrac of them reads. Fixing the counts keeps CPU per op, which
// the idle cluster's own cost dominates, from following the draw. Write
// indices continue after the preload's.
func genLiveOps(spec liveSpec, seed int64, window time.Duration) (ops []liveOp, writeKey []int) {
	for j := 0; j < spec.keys; j++ {
		writeKey = append(writeKey, j)
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(spec.rate * window.Seconds())
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(dues)
	isRead := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(spec.readFrac*float64(n)))] {
		isRead[i] = true
	}
	for i, at := range dues {
		op := liveOp{due: time.Duration(at * float64(time.Second)), worker: rng.Intn(clients), key: rng.Intn(spec.keys), write: -1}
		if !isRead[i] {
			op.write = len(writeKey)
			writeKey = append(writeKey, op.key)
		}
		ops = append(ops, op)
	}
	return ops, writeKey
}

type liveResult struct {
	start, end time.Time
	err        error
	value      string
	found      bool
}

// window is one measured stretch of the open loop on a set-up cluster.
type window struct {
	ops      []liveOp
	keys     int
	writeKey []int
	start    time.Time
	cpu      time.Duration
	results  []liveResult
}

// drive runs the schedule: each of the two goroutines sends its ops when
// due over its own connection, and every request is timed from its due
// time, so a stall also delays the requests queued behind it.
func (c *liveCluster) drive(ops []liveOp, keys int, writeKey []int) *window {
	win := &window{ops: ops, keys: keys, writeKey: writeKey, results: make([]liveResult, len(ops))}
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	win.start = time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, op := range ops {
				if op.worker != w {
					continue
				}
				time.Sleep(time.Until(win.start.Add(op.due)))
				r := &win.results[i]
				r.start = time.Now()
				if op.write >= 0 {
					r.err = c.write(w, op.key, op.write)
				} else {
					r.value, r.found, r.err = c.read(w, op.key)
				}
				r.end = time.Now()
			}
		}(w)
	}
	wg.Wait()
	win.cpu = cpuTime() - cpu0
	return win
}

func (win *window) due(i int) time.Time { return win.start.Add(win.ops[i].due) }

// settle waits until every accepted write is applied everywhere and the
// replicas' snapshots agree, then checks the outputs.
func (c *liveCluster) settle(win *window, out *outcome) {
	lo := c.obs
	var accepted []int
	for i, op := range win.ops {
		r := win.results[i]
		if r.err != nil {
			out.failed++
			out.note("request failed: %v", r.err)
			continue
		}
		if op.write >= 0 {
			accepted = append(accepted, op.write)
		} else if r.found && !validRead(win.writeKey, op.key, r.value) {
			out.fail("read of %s returned %q, never written to it", keyName(op.key), r.value)
		}
	}
	allVisible := func() bool {
		for _, idx := range accepted {
			if lo.visAt[idx].IsZero() {
				return false
			}
		}
		return true
	}
	if !lo.wait(allVisible, visibleTimeout) {
		lo.mu.Lock()
		lost := 0
		for _, idx := range accepted {
			if lo.visAt[idx].IsZero() {
				lost++
			}
		}
		lo.mu.Unlock()
		out.failed += int64(lost)
		out.fail("%d accepted writes not applied at every replica after %v", lost, visibleTimeout)
	}
	var snaps []string
	deadline := time.Now().Add(visibleTimeout)
	for {
		var err error
		snaps, err = c.snapshots()
		if err != nil {
			out.fail("snapshot: %v", err)
			return
		}
		if snaps[1] == snaps[0] && snaps[2] == snaps[0] || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snaps[1] != snaps[0] || snaps[2] != snaps[0] {
		out.fail("replica snapshots differ after the drain")
	}
	pairs := strings.Split(snaps[0], ",")
	if len(pairs) != win.keys {
		out.fail("snapshot holds %d keys, keyspace has %d", len(pairs), win.keys)
	}
	for _, pair := range pairs {
		k, v, _ := strings.Cut(pair, "=")
		var j int
		if _, err := fmt.Sscanf(k, "k%d", &j); err != nil || !validRead(win.writeKey, j, v) {
			out.fail("snapshot entry %q was never written", pair)
			return
		}
	}
}

// latencies returns, in ms from the due time, every accepted write's
// visibility at all replicas and every answered read's response.
func (c *liveCluster) latencies(win *window) (visible, reads []float64) {
	c.obs.mu.Lock()
	defer c.obs.mu.Unlock()
	for i, op := range win.ops {
		r := win.results[i]
		switch {
		case r.err != nil:
		case op.write >= 0:
			if v := c.obs.visAt[op.write]; !v.IsZero() {
				visible = append(visible, ms(v.Sub(win.due(i))))
			}
		default:
			reads = append(reads, ms(r.end.Sub(win.due(i))))
		}
	}
	return visible, reads
}

// liveCounters are the stack and transport counters summed over replicas,
// indexed by the c* constants.
type liveCounters [numCounters]int64

const (
	cResends = iota
	cDupes
	cRebuilds
	cFlushes
	cCoalesced
	cInboxDropped
	cApplies
	cUpdateIDs
	cPromoteIDs
	cApplyNS
	numCounters
)

func (c *liveCluster) counters(t *applyTimer) liveCounters {
	var lc liveCounters
	for _, nd := range c.nodes {
		reg := nd.Registry()
		reg.Collect()
		lc[cResends] += reg.Value(obs.MetricRetransmitResends)
		lc[cDupes] += reg.Value(obs.MetricRetransmitDuplicates)
		lc[cRebuilds] += reg.Value(obs.MetricSMRRebuilds)
		lc[cFlushes] += reg.Value(obs.MetricTransportFlushes)
		lc[cCoalesced] += reg.Value(obs.MetricTransportCoalesced)
		lc[cInboxDropped] += reg.Value(obs.MetricTransportInboxDrop)
	}
	c.obs.mu.Lock()
	lc[cApplies] = c.obs.applies
	c.obs.mu.Unlock()
	lc[cUpdateIDs], lc[cPromoteIDs] = c.obs.updateIDs.Load(), c.obs.promoteIDs.Load()
	if t != nil {
		lc[cApplyNS] = t.total.Load()
	}
	return lc
}

func (a liveCounters) plus(b liveCounters, sign int64) liveCounters {
	for i := range a {
		a[i] += sign * b[i]
	}
	return a
}

func writesIn(ops []liveOp) int {
	n := 0
	for _, op := range ops {
		if op.write >= 0 {
			n++
		}
	}
	return n
}

// segment is one window of the open loop on a freshly set-up cluster.
type segment struct {
	setup            time.Duration
	cpu              time.Duration
	ops, writes      int
	d                liveCounters // counter deltas over the window and its drain
	visible, reads   []float64    // ms from the due time
	submit, late     []float64    // ms from the due time
	replicate        []float64    // ms from the origin's submit
	loopWait, snapMS []float64    // traced only
}

// runSegment sets up a cluster, drives one window of the schedule seed
// draws and checks the outputs. A traced segment also times Apply, probes
// each event loop's wait with a no-op Proc.Inspect and times
// Replica.Snapshot inside Proc.Inspect.
func runSegment(spec liveSpec, seed int64, window time.Duration, traced bool, out *outcome) (*segment, error) {
	ops, writeKey := genLiveOps(spec, seed, window)
	var timer *applyTimer
	machine := smr.KVFactory
	if traced {
		timer = &applyTimer{}
		machine = timer.factory
	}
	c, setup, err := setupCluster(spec, len(writeKey), machine)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	seg := &segment{setup: setup, ops: len(ops), writes: writesIn(ops)}
	before := c.counters(timer)
	var stopProbe func()
	if traced {
		stopProbe = c.probe(seg)
	}
	win := c.drive(ops, spec.keys, writeKey)
	if traced {
		stopProbe()
	}
	seg.cpu = win.cpu
	c.settle(win, out)
	seg.d = c.counters(timer).plus(before, -1)
	out.attempted += int64(len(ops))
	seg.visible, seg.reads = c.latencies(win)

	c.obs.mu.Lock()
	defer c.obs.mu.Unlock()
	for i, op := range ops {
		seg.late = append(seg.late, ms(win.results[i].start.Sub(win.due(i))))
		if op.write < 0 || win.results[i].err != nil {
			continue
		}
		if sub := c.obs.submitAt[op.write]; !sub.IsZero() {
			seg.submit = append(seg.submit, ms(sub.Sub(win.due(i))))
			if vis := c.obs.visAt[op.write]; !vis.IsZero() {
				seg.replicate = append(seg.replicate, ms(vis.Sub(sub)))
			}
		}
	}
	return seg, nil
}

// probe starts the traced segment's event-loop probes and returns the
// function that stops them and waits for them to exit.
func (c *liveCluster) probe(seg *segment) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for _, nd := range c.nodes {
				t0 := time.Now()
				nd.Proc().Inspect(func(model.Automaton) {})
				seg.loopWait = append(seg.loopWait, ms(time.Since(t0)))
			}
			if n%5 == 0 {
				c.nodes[n/5%liveN].Proc().Inspect(func(a model.Automaton) {
					t0 := time.Now()
					core.UnwrapReplica(a).Snapshot()
					seg.snapMS = append(seg.snapMS, ms(time.Since(t0)))
				})
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// segmentLength is the window of one segment. A run splits its budget into
// segments on fresh clusters, so the history stays near the preloaded
// keyspace instead of growing through the run, and every segment's set-up is
// one setup_s sample. Short segments give many set-up samples per run.
const segmentLength = 2500 * time.Millisecond

func segments(budget time.Duration) (n int, window time.Duration) {
	n = int((budget + segmentLength - 1) / segmentLength)
	return n, budget / time.Duration(n)
}

// runLive runs the live workload for the budget and reports its metrics,
// pooled over its segments.
func runLive(spec liveSpec, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	out := &outcome{correct: true, metrics: map[string]float64{}}
	if traced {
		return out, traceLive(spec, seed, budget, out)
	}
	n, window := segments(budget)
	var setups, visible, reads []float64
	var cpu time.Duration
	ops := 0
	for i := 0; i < n; i++ {
		seg, err := runSegment(spec, subSeed(seed, i), window, false, out)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seg.setup.Seconds())
		visible = append(visible, seg.visible...)
		reads = append(reads, seg.reads...)
		cpu += seg.cpu
		ops += seg.ops
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = float64(ops) / cpu.Seconds()
	m["cpu_us_per_op"] = us(cpu) / float64(ops)
	m["visible_p50_ms"] = quantile(visible, 0.5)
	m["read_p50_ms"] = quantile(reads, 0.5)
	m["rss_mb_peak"] = rssPeakMB()
	return out, nil
}

// traceLive runs pairs of segments on the same schedule, untraced and
// traced: the untraced ones give the counters, the traced ones the stage and
// probe timings, and the CPU per op of the two kinds the tracing overhead.
func traceLive(spec liveSpec, seed int64, budget time.Duration, out *outcome) error {
	n, _ := segments(budget)
	n += n % 2
	window := budget / time.Duration(n)
	var d liveCounters
	var plainCPU, tracedCPU time.Duration
	var plainOps, tracedOps, plainWrites, tracedWrites int
	var submit, replicate, late, loopWait, snapMS, visible, reads []float64
	var applyNS int64
	for i := 0; i < n; i++ {
		traced := i%2 == 1
		seg, err := runSegment(spec, subSeed(seed, i/2), window, traced, out)
		if err != nil {
			return err
		}
		if !traced {
			d = d.plus(seg.d, 1)
			plainCPU += seg.cpu
			plainOps += seg.ops
			plainWrites += seg.writes
			visible = append(visible, seg.visible...)
			reads = append(reads, seg.reads...)
			continue
		}
		tracedCPU += seg.cpu
		tracedOps += seg.ops
		tracedWrites += seg.writes
		applyNS += seg.d[cApplyNS]
		submit = append(submit, seg.submit...)
		replicate = append(replicate, seg.replicate...)
		late = append(late, seg.late...)
		loopWait = append(loopWait, seg.loopWait...)
		snapMS = append(snapMS, seg.snapMS...)
	}
	writes := float64(plainWrites)
	frames := d[cFlushes] + d[cCoalesced]
	m := out.metrics
	m["retransmit.resends_per_op"] = float64(d[cResends]) / writes
	m["retransmit.duplicates_per_op"] = float64(d[cDupes]) / writes
	m["etob.update_ids_per_op"] = float64(d[cUpdateIDs]) / writes
	m["etob.promote_ids_per_op"] = float64(d[cPromoteIDs]) / writes
	m["etob.replicate_p50_ms"] = quantile(replicate, 0.5)
	m["etob.replicate_p90_ms"] = quantile(replicate, 0.9)
	m["smr.apply_us_per_op"] = float64(applyNS) / 1e3 / float64(tracedWrites)
	m["smr.applies_per_op"] = float64(d[cApplies]) / (writes * liveN)
	m["smr.rebuilds"] = float64(d[cRebuilds])
	m["smr.snapshot_ms"] = median(snapMS)
	m["runtime.loop_wait_p50_ms"] = quantile(loopWait, 0.5)
	m["runtime.loop_wait_p90_ms"] = quantile(loopWait, 0.9)
	m["runtime.frames_per_op"] = float64(frames) / writes
	if frames > 0 {
		m["runtime.coalesced_frac"] = float64(d[cCoalesced]) / float64(frames)
	}
	m["runtime.inbox_dropped"] = float64(d[cInboxDropped])
	m["node.submit_p50_ms"] = quantile(submit, 0.5)
	m["gen.late_p90_ms"] = quantile(late, 0.9)
	m["bench.visible_p90_ms"] = quantile(visible, 0.9)
	m["bench.read_p90_ms"] = quantile(reads, 0.9)
	m["bench.trace_overhead_frac"] = (tracedCPU.Seconds()/float64(tracedOps))/(plainCPU.Seconds()/float64(plainOps)) - 1
	return nil
}
