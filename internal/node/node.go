// Package node wraps one service replica as a deployable process: the same
// automaton stack the simulator and the in-process cluster run
// (core.ReplicaStack — retransmission, broadcast protocol, replicated
// machine), driven by a runtime.Proc over a real TCP transport, fronted by a
// small HTTP API for client operations and introspection.
//
// A Node is what cmd/ecnode boots per replica. Its layers, bottom up:
//
//   - runtime.TCPTransport: length-prefixed gob frames over reconnecting
//     per-peer connections. Delivery is at-most-once; reconnection is the
//     transport's job.
//   - retransmit.Wrap: restores the paper's eventual-delivery assumption over
//     that lossy wire — and, because a deployable node must not leak against
//     a peer that is gone for good, enables the sender-side give-up bound
//     (Options.GiveUpTicks) sized well above the expected churn scale.
//   - runtime.Proc: the event loop with the heartbeat Ω — the failure
//     detector actually implemented from message passing.
//   - HTTP (this package): POST /update submits commands, GET /read and
//     /snapshot read the replica's machine, /status reports replication
//     internals, /healthz answers load-balancer probes.
//
// Restart identity: the node pins the process clock to the Unix epoch
// (runtime.Options.ClockEpoch), so a restarted replica initializes its
// retransmission layer with a strictly larger incarnation epoch instead of
// colliding with its previous life — receiver-side dedup then distinguishes
// the two incarnations' envelope streams by construction.
//
// Shutdown is graceful and load-balancer-aware: Shutdown first flips
// /healthz to failing and deregisters from the front door (internal/lb), so
// no new operations are routed here; then it drains in-flight HTTP requests;
// only then does it stop the event loop and close the transport. A client
// driving operations through the front door across a rolling restart
// observes zero failed operations (the node package's integration test pins
// this).
//
// # Degraded read-only mode
//
// A replica that has heard NO peer heartbeat for a leader-timeout span
// (Config.DegradedAfter) is cut off from the mesh: its Ω output has
// collapsed to itself, and a command accepted now cannot replicate anywhere
// — if this replica then dies, "202 accepted" was a lie. Rather than fail
// silently, the node degrades explicitly:
//
//   - Writes are REFUSED with 503 and a Retry-After header. The front door
//     treats that reply as "replica declining, not broken" and fails the
//     operation over to a backend on the other side of the partition.
//   - Reads and snapshots keep being served — eventual consistency means
//     local state is always a legitimate (if stale) prefix — but carry an
//     "X-Ec-Degraded: stale" header so clients can tell.
//   - /healthz stays 200: a degraded replica is alive and useful for reads;
//     eviction would throw that capacity away.
//
// Degradation is self-healing: the first peer heartbeat after the partition
// heals clears it. A boot grace period (Config.BootGrace) keeps a starting
// replica out of degraded mode while the mesh dials in.
//
// Chaos: Config.Fault, when set, wraps the TCP transport in a
// runtime.FaultTransport — the live seeded chaos injector — and Fault()
// exposes the handle so harnesses can script partitions and heals against a
// running node.
package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/smr"
)

// RegisterProtocolTypes registers the replica stack's full wire vocabulary
// with the gob codec: retransmission envelopes and the broadcast protocol
// messages they carry — ETOB's for Eventual replicas, the Paxos log's for
// Strong ones. Every process of a cluster must call it (node.New does)
// before frames flow.
func RegisterProtocolTypes() {
	runtime.RegisterWireType(retransmit.Data{})
	runtime.RegisterWireType(retransmit.Ack{})
	runtime.RegisterWireType(etob.UpdateMsg{})
	runtime.RegisterWireType(etob.PromoteMsg{})
	runtime.RegisterWireType(consensus.SubmitMsg{})
	runtime.RegisterWireType(consensus.PrepareMsg{})
	runtime.RegisterWireType(consensus.PromiseMsg{})
	runtime.RegisterWireType(consensus.AcceptMsg{})
	runtime.RegisterWireType(consensus.AcceptedMsg{})
}

// DefaultGiveUpTicks is the node's default sender-side persistence bound:
// with the default 2ms tick this is ~60s of link silence — far above restart
// and reconnect scales — before a capped-backoff envelope is abandoned.
const DefaultGiveUpTicks = 30000

// Config configures one replica node.
type Config struct {
	// ID is this replica's process ID (1..n).
	ID model.ProcID
	// Peers maps every replica — ID included — to its TRANSPORT address
	// (host:port for the inter-replica TCP mesh, not the HTTP API).
	Peers map[model.ProcID]string
	// HTTPAddr is the client-facing HTTP listen address (default
	// "127.0.0.1:0").
	HTTPAddr string
	// Front, if non-empty, is the front door's base URL (internal/lb); the
	// node registers itself on start and deregisters on Shutdown.
	Front string
	// Consistency selects the protocol (default core.Eventual).
	Consistency core.Consistency
	// Machine is the replicated state machine (default KV store).
	Machine smr.MachineFactory
	// Runtime tunes the event loop. ClockEpoch is forced to the Unix epoch
	// (see the package comment); everything else passes through.
	Runtime runtime.Options
	// Retransmit tunes the retransmission layer. Nil gets a per-ID seed and
	// DefaultGiveUpTicks.
	Retransmit *retransmit.Options
	// Batch configures ETOB broadcast batching (internal/etob's flush-policy
	// contract): HTTP-submitted updates queue at the broadcast layer and ride
	// the next window — one update message per flush instead of one per
	// command — shrinking both wire traffic and the retransmission layer's
	// sender state by the batch factor. The zero value disables batching.
	Batch etob.BatchOptions
	// Fault, if non-nil, wraps the TCP transport in a runtime.FaultTransport
	// seeded with this config — the live chaos injector. The handle is
	// available via Fault() for scripting partitions and heals.
	Fault *runtime.FaultConfig
	// DegradedAfter is the peer-silence window after which the replica
	// declares itself degraded (read-only). Default: the event loop's
	// leader timeout.
	DegradedAfter time.Duration
	// BootGrace suppresses degraded mode for this long after start, covering
	// mesh dial-in. Default: 2×DegradedAfter.
	BootGrace time.Duration
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Node is one running replica.
type Node struct {
	cfg   Config
	tr    runtime.Transport
	tcp   *runtime.TCPTransport   // unwrapped handle for transport counters
	fault *runtime.FaultTransport // nil unless Config.Fault was set
	proc  *runtime.Proc
	srv   *http.Server
	ln    net.Listener
	rt    retransmit.Options
	front string

	started       time.Time
	degradedAfter time.Duration
	bootGrace     time.Duration

	draining  atomic.Bool
	accepted  atomic.Int64
	rejected  atomic.Int64 // writes refused while degraded
	closeOnce sync.Once
	httpDone  chan struct{}

	// Observability plane: the metrics registry behind GET /metrics (and,
	// since the migration, /status), the op-lifecycle tracer behind
	// GET /trace, and a snapshot cache the registry's scrape hook refreshes
	// alongside the stack counters (one Proc.Inspect serves both).
	reg     *obs.Registry
	tracer  *obs.OpTracer
	httpLat *obs.Histogram
	snapMu  sync.Mutex
	snap    string
}

// New builds and starts a replica node: transport bound, event loop running,
// HTTP API serving, front-door registration done (when configured).
func New(cfg Config) (*Node, error) {
	if cfg.ID < 1 {
		return nil, fmt.Errorf("node: invalid replica ID %v", cfg.ID)
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	rt := retransmit.Options{Seed: int64(cfg.ID), GiveUpTicks: DefaultGiveUpTicks}
	if cfg.Retransmit != nil {
		rt = *cfg.Retransmit
	}
	RegisterProtocolTypes()
	tcp, err := runtime.NewTCPTransport(runtime.TCPConfig{Self: cfg.ID, Peers: cfg.Peers})
	if err != nil {
		return nil, err
	}
	var tr runtime.Transport = tcp
	var fault *runtime.FaultTransport
	if cfg.Fault != nil {
		fault = runtime.NewFaultTransport(tcp, *cfg.Fault)
		tr = fault
	}
	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("node: http listen %s: %w", cfg.HTTPAddr, err)
	}
	opts := cfg.Runtime
	opts.ClockEpoch = time.Unix(0, 0)
	// Degraded window defaults track the event loop's own liveness horizon
	// (mirroring runtime.Options defaults for unset fields).
	hb := opts.HeartbeatInterval
	if hb <= 0 {
		hb = 2 * time.Millisecond
	}
	degradedAfter := cfg.DegradedAfter
	if degradedAfter <= 0 {
		degradedAfter = opts.LeaderTimeout
		if degradedAfter <= 0 {
			degradedAfter = 10 * hb
		}
	}
	bootGrace := cfg.BootGrace
	if bootGrace <= 0 {
		bootGrace = 2 * degradedAfter
	}
	n := &Node{
		cfg:           cfg,
		tr:            tr,
		tcp:           tcp,
		fault:         fault,
		rt:            rt,
		front:         strings.TrimRight(cfg.Front, "/"),
		ln:            ln,
		started:       time.Now(),
		degradedAfter: degradedAfter,
		bootGrace:     bootGrace,
		httpDone:      make(chan struct{}),
	}
	n.reg = obs.NewRegistry()
	n.tracer = obs.NewOpTracer(0)
	n.httpLat = n.reg.Histogram(obs.MetricHTTPLatency)
	// The tracer's submit and deliver stamps ride the event loop's output
	// stream; tee with whatever observer the caller installed.
	obsv := opts.Observer
	if obsv == nil {
		obsv = sim.NopObserver{}
	}
	opts.Observer = traceObserver{Observer: obsv, n: n}
	n.proc = runtime.NewProc(tr, core.ReplicaStackWith(cfg.Consistency, core.StackOptions{
		Machine:    cfg.Machine,
		Retransmit: &rt,
		Batch:      cfg.Batch,
	}), opts)
	n.wireMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("/update", n.handleUpdate)
	mux.HandleFunc("/read", n.handleRead)
	mux.HandleFunc("/snapshot", n.handleSnapshot)
	mux.HandleFunc("/status", n.handleStatus)
	mux.HandleFunc("/healthz", n.handleHealthz)
	mux.Handle("/metrics", n.reg)
	mux.Handle("/trace", n.tracer)
	// Explicit server deadlines: a wedged or malicious client must not pin a
	// handler goroutine (or a drain) forever.
	n.srv = &http.Server{
		Handler:           n.instrument(mux),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() {
		defer close(n.httpDone)
		err := n.srv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			n.logf("node %v: http serve: %v", cfg.ID, err)
		}
	}()

	if n.front != "" {
		if err := n.register(); err != nil {
			n.logf("node %v: front-door registration failed: %v", cfg.ID, err)
		}
	}
	return n, nil
}

// wireMetrics connects every layer of the node to the registry. Sources with
// their own atomics (transport, event loop, HTTP counters) register
// read-at-scrape functions; counters living inside the event loop (the
// protocol stack) are snapshotted by an OnScrape hook through ONE
// Proc.Inspect, which also refreshes the machine-snapshot cache /status
// serves. The ETOB flush hook for the op tracer is installed the same way.
func (n *Node) wireMetrics() {
	reg := n.reg
	reg.CounterFunc(obs.MetricTransportDropped, n.tr.Dropped)
	reg.CounterFunc(obs.MetricTransportInboxDrop, n.tcp.InboxDropped)
	reg.CounterFunc(obs.MetricTransportFlushes, n.tcp.Flushes)
	reg.CounterFunc(obs.MetricTransportCoalesced, n.tcp.Coalesced)
	reg.CounterFunc(obs.MetricTransportRedials, n.tcp.Redials)
	if n.fault != nil {
		reg.CounterFunc(obs.MetricTransportInjected, n.fault.Injected)
	}
	reg.CounterFunc(obs.MetricNodeAccepted, n.accepted.Load)
	reg.CounterFunc(obs.MetricNodeRejected, n.rejected.Load)
	reg.GaugeFunc(obs.MetricNodeDegraded, func() int64 {
		if n.Degraded() {
			return 1
		}
		return 0
	})
	reg.CounterFunc(obs.MetricOmegaFlaps, n.proc.LeaderFlaps)
	reg.GaugeFunc(obs.MetricOmegaLeader, func() int64 { return int64(n.proc.Leader()) })
	reg.OnScrape(func() {
		n.proc.Inspect(func(a model.Automaton) {
			core.CollectStackMetrics(reg, a)
			snap := core.UnwrapReplica(a).Snapshot()
			n.snapMu.Lock()
			n.snap = snap
			n.snapMu.Unlock()
		})
	})
	n.proc.Inspect(func(a model.Automaton) {
		if e, ok := core.UnwrapReplica(a).Inner().(*etob.Automaton); ok {
			e.SetFlushHook(n.onFlush)
		}
	})
}

// onFlush is the ETOB batching layer's observability tap: every op leaving
// in an update(CG_i) broadcast gets its batch-flush and broadcast stamps
// (one instant — in this protocol the flush IS the broadcast).
func (n *Node) onFlush(ids []string) {
	now := time.Now().UnixMicro()
	self := fmt.Sprint(int(n.cfg.ID))
	for _, id := range ids {
		n.tracer.Record(id, obs.StageBatchFlush, self, now)
		n.tracer.Record(id, obs.StageBroadcast, self, now)
	}
}

// traceObserver stamps the op tracer from the event loop's output stream:
// the replica announces each minted broadcast ID (submit) and each applied
// suffix (deliver — possibly again after a causal-order rebuild, which is
// exactly the re-application the "order-stable" reading keys on).
type traceObserver struct {
	sim.Observer
	n *Node
}

func (o traceObserver) OnOutput(p model.ProcID, t model.Time, out any) {
	switch v := out.(type) {
	case model.BroadcastInput:
		o.n.tracer.Record(v.ID, obs.StageSubmit, fmt.Sprint(int(p)), time.Now().UnixMicro())
	case smr.Applied:
		now := time.Now().UnixMicro()
		proc := fmt.Sprint(int(p))
		for _, id := range v.New {
			o.n.tracer.Record(id, obs.StageDeliver, proc, now)
		}
	}
	o.Observer.OnOutput(p, t, out)
}

// instrument wraps the HTTP mux with the request-latency histogram
// (http_request_duration_us — microseconds, all endpoints).
func (n *Node) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		n.httpLat.Record(time.Since(start).Microseconds())
	})
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// ID returns the replica's process ID.
func (n *Node) ID() model.ProcID { return n.cfg.ID }

// HTTPAddr returns the address the HTTP API actually listens on.
func (n *Node) HTTPAddr() string { return n.ln.Addr().String() }

// URL returns the HTTP API base URL.
func (n *Node) URL() string { return "http://" + n.HTTPAddr() }

// Proc exposes the underlying event loop (tests and cmd/ecnode diagnostics).
func (n *Node) Proc() *runtime.Proc { return n.proc }

// Accepted returns how many update operations this node has accepted.
func (n *Node) Accepted() int64 { return n.accepted.Load() }

// Rejected returns how many writes this node refused while degraded.
func (n *Node) Rejected() int64 { return n.rejected.Load() }

// Registry returns the node's metrics registry (the handler behind
// GET /metrics). Harnesses can read counters directly instead of scraping.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Tracer returns the node's op-lifecycle tracer (the handler behind
// GET /trace).
func (n *Node) Tracer() *obs.OpTracer { return n.tracer }

// Fault returns the live chaos injector wrapping this node's transport, or
// nil when Config.Fault was not set.
func (n *Node) Fault() *runtime.FaultTransport { return n.fault }

// Degraded reports whether this replica is currently cut off from its peer
// mesh: past the boot grace, cluster size ≥ 2, and no peer heartbeat within
// the degraded window. See the package comment for the semantics.
func (n *Node) Degraded() bool {
	if n.proc.N() < 2 {
		return false
	}
	if time.Since(n.started) < n.bootGrace {
		return false
	}
	return n.proc.PeersHeard(n.degradedAfter) == 0
}

// Front-door client-op budget: every control-plane HTTP call carries an
// explicit deadline, and retries follow exponential backoff with FULL jitter
// — uniform in [0, min(base·2^attempt, cap)] — so a herd of replicas racing
// a rebooting front door decorrelates instead of hammering in lockstep.
const (
	frontOpTimeout     = 2 * time.Second
	frontBackoffBase   = 50 * time.Millisecond
	frontBackoffCap    = time.Second
	registerAttempts   = 12
	deregisterAttempts = 3
)

func backoffFullJitter(base, cap time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// postFront performs one deadline-bounded POST to the front door, treating
// any non-200 as an error.
func (n *Node) postFront(target string) error {
	ctx, cancel := context.WithTimeout(context.Background(), frontOpTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("front door answered %s", resp.Status)
	}
	return nil
}

// register announces this replica to the front door, with bounded
// backoff-and-jitter retries so a node booting alongside its front door wins
// the race without tight-loop hammering.
func (n *Node) register() error {
	v := url.Values{"id": {fmt.Sprint(int(n.cfg.ID))}, "url": {n.URL()}}
	target := n.front + "/register?" + v.Encode()
	var lastErr error
	for attempt := 0; attempt < registerAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoffFullJitter(frontBackoffBase, frontBackoffCap, attempt-1))
		}
		if lastErr = n.postFront(target); lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// deregister withdraws this replica from the front door (best effort, but
// retried: a lost deregistration leaves the front door routing to a corpse
// until its probes notice).
func (n *Node) deregister() {
	v := url.Values{"id": {fmt.Sprint(int(n.cfg.ID))}}
	target := n.front + "/deregister?" + v.Encode()
	var lastErr error
	for attempt := 0; attempt < deregisterAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoffFullJitter(frontBackoffBase, frontBackoffCap, attempt-1))
		}
		if lastErr = n.postFront(target); lastErr == nil {
			return
		}
	}
	n.logf("node %v: deregister: %v", n.cfg.ID, lastErr)
}

// Shutdown stops the node gracefully, in the order that costs clients
// nothing: leave the front door and fail health probes first (no NEW
// operations are routed here), drain in-flight HTTP work (operations already
// here complete — the replica keeps accepting until its event loop actually
// stops), flush the retransmission layer's unacked envelopes so every
// accepted command has reached the surviving replicas, and only then stop
// the event loop and close the transport. Safe to call more than once.
func (n *Node) Shutdown(ctx context.Context) error {
	var err error
	n.closeOnce.Do(func() {
		n.draining.Store(true)
		if n.front != "" {
			n.deregister()
		}
		err = n.srv.Shutdown(ctx)
		<-n.httpDone
		n.flushPending(ctx)
		n.proc.Stop() // closes the transport too
		select {
		case <-n.proc.Done():
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
	})
	return err
}

// flushPending waits (bounded by ctx) until the retransmission layer holds no
// unacked envelopes — every command this node accepted and broadcast has been
// acknowledged by every peer — so stopping the transport loses nothing. A
// peer that is itself down keeps envelopes pending; the context bounds how
// long departure waits for it.
func (n *Node) flushPending(ctx context.Context) {
	for {
		pending := 0
		ok := n.proc.Inspect(func(a model.Automaton) {
			if wrap, isWrapped := a.(*retransmit.Automaton); isWrapped {
				pending = wrap.PendingEnvelopes()
			}
		})
		if !ok || pending == 0 {
			return
		}
		select {
		case <-ctx.Done():
			n.logf("node %v: leaving with %d unacked envelopes (flush budget exhausted)", n.cfg.ID, pending)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Kill stops the node abruptly — no deregistration, no drain — simulating a
// crash (the front door's health probes must evict it). Tests only.
func (n *Node) Kill() {
	n.closeOnce.Do(func() {
		n.draining.Store(true)
		n.srv.Close()
		<-n.httpDone
		n.proc.Stop()
		<-n.proc.Done()
	})
}

// handleUpdate accepts a command (query parameter "cmd", or the request body
// when absent) and submits it to the replica. 202 means accepted for
// replication, not yet applied — this is an eventually consistent service.
func (n *Node) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	cmd := r.URL.Query().Get("cmd")
	if cmd == "" {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cmd = strings.TrimSpace(string(body))
	}
	if cmd == "" {
		http.Error(w, "empty command", http.StatusBadRequest)
		return
	}
	// A DEGRADED replica refuses writes explicitly: accepted-but-unreplicable
	// is the one acknowledgment this service must never hand out. 503 plus
	// Retry-After tells the front door "decline, not death" — it fails the
	// operation over to a connected backend without marking this one down.
	if n.Degraded() {
		n.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "degraded: partitioned from all peers, refusing writes", http.StatusServiceUnavailable)
		return
	}
	// Note: a DRAINING node still accepts — operations routed here before the
	// front door saw the deregistration must succeed, and the shutdown path
	// flushes their replication before the event loop stops. Only an actually
	// stopped event loop refuses.
	if !n.proc.Submit(smr.Command{Cmd: cmd}) {
		http.Error(w, "replica stopped", http.StatusServiceUnavailable)
		return
	}
	n.accepted.Add(1)
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "accepted")
}

// inspect runs f against the replica inside the event loop.
func (n *Node) inspect(f func(r *smr.Replica)) bool {
	return n.proc.Inspect(func(a model.Automaton) { f(core.UnwrapReplica(a)) })
}

// handleRead answers GET /read?key=k from the replica's KV snapshot. Reads
// are local (eventually consistent): the answer reflects this replica's
// current applied prefix.
func (n *Node) handleRead(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	n.markStaleness(w)
	var snap string
	if !n.inspect(func(rep *smr.Replica) { snap = rep.Snapshot() }) {
		http.Error(w, "replica stopped", http.StatusServiceUnavailable)
		return
	}
	for _, pair := range strings.Split(snap, ",") {
		if k, v, ok := strings.Cut(pair, "="); ok && k == key {
			fmt.Fprintln(w, v)
			return
		}
	}
	http.Error(w, "not found", http.StatusNotFound)
}

// markStaleness stamps degraded responses: reads keep flowing but announce
// that this replica may be arbitrarily behind the rest of the cluster.
func (n *Node) markStaleness(w http.ResponseWriter) {
	if n.Degraded() {
		w.Header().Set("X-Ec-Degraded", "stale")
	}
}

// handleSnapshot answers GET /snapshot with the machine's full snapshot.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	n.markStaleness(w)
	var snap string
	if !n.inspect(func(rep *smr.Replica) { snap = rep.Snapshot() }) {
		http.Error(w, "replica stopped", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, snap)
}

// Status is the replica's introspection report (GET /status).
type Status struct {
	ID         int   `json:"id"`
	N          int   `json:"n"`
	Leader     int   `json:"leader"`
	Applied    int   `json:"applied"`
	Rebuilds   int   `json:"rebuilds"`
	Accepted   int64 `json:"accepted"`
	Rejected   int64 `json:"rejected"`
	Degraded   bool  `json:"degraded"`
	Dropped    int64 `json:"dropped"`
	Injected   int64 `json:"injected,omitempty"` // faults injected by the chaos layer
	Resends    int64 `json:"resends"`
	Duplicates int64 `json:"duplicates"`
	Pending    int   `json:"pending"`
	Abandoned  int64 `json:"abandoned"`
	// Transport counters: frames dropped at the inbox (event loop too slow
	// for the arrival rate), the writer's coalescing effectiveness —
	// connection writes performed vs frames that rode an earlier write — and
	// peer-connection re-dial attempts.
	InboxDropped int64 `json:"inbox_dropped"`
	Flushes      int64 `json:"flushes"`
	Coalesced    int64 `json:"coalesced"`
	Redials      int64 `json:"redials"`
	// LeaderFlaps counts changes of this process's heartbeat-Ω output — the
	// oscillation the paper's eventual guarantees ask to see settle.
	LeaderFlaps int64 `json:"leader_flaps"`
	// DedupSparse is the receiver-side dedup footprint (out-of-order seqnos
	// held beyond the compact watermark).
	DedupSparse int `json:"dedup_sparse"`
	// Broadcast batching counters (zero when Config.Batch is off): update
	// broadcasts emitted (split by trigger — depth-reached vs linger-expired),
	// commands that rode them, the current batch-size target, and commands
	// still queued for the next window. Undelivered is the broadcast layer's
	// submitted-but-not-yet-delivered backlog (nonzero also without batching).
	BatchFlushes       int64  `json:"batch_flushes,omitempty"`
	BatchFullFlushes   int64  `json:"batch_full_flushes,omitempty"`
	BatchLingerFlushes int64  `json:"batch_linger_flushes,omitempty"`
	BatchOps           int64  `json:"batch_ops,omitempty"`
	BatchTarget        int    `json:"batch_target,omitempty"`
	BatchQueued        int    `json:"batch_queued,omitempty"`
	Undelivered        int    `json:"undelivered"`
	Snapshot           string `json:"snapshot"`
}

// handleStatus serves the introspection report off the metrics registry: one
// Collect() runs the scrape hook (a single Proc.Inspect snapshotting the
// protocol stack and the machine), then every field is a registry read. The
// report and GET /metrics are therefore the same numbers by construction.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	select {
	case <-n.proc.Done():
		http.Error(w, "replica stopped", http.StatusServiceUnavailable)
		return
	default:
	}
	n.reg.Collect()
	n.snapMu.Lock()
	snap := n.snap
	n.snapMu.Unlock()
	st := Status{
		ID:          int(n.cfg.ID),
		N:           n.proc.N(),
		Leader:      int(n.reg.Value(obs.MetricOmegaLeader)),
		Applied:     int(n.reg.Value(obs.MetricSMRApplied)),
		Rebuilds:    int(n.reg.Value(obs.MetricSMRRebuilds)),
		Accepted:    n.reg.Value(obs.MetricNodeAccepted),
		Rejected:    n.reg.Value(obs.MetricNodeRejected),
		Degraded:    n.reg.Value(obs.MetricNodeDegraded) != 0,
		Dropped:     n.reg.Value(obs.MetricTransportDropped),
		Resends:     n.reg.Value(obs.MetricRetransmitResends),
		Duplicates:  n.reg.Value(obs.MetricRetransmitDuplicates),
		Pending:     int(n.reg.Value(obs.MetricRetransmitPending)),
		Abandoned:   n.reg.Value(obs.MetricRetransmitAbandoned),
		DedupSparse: int(n.reg.Value(obs.MetricRetransmitSparse)),

		InboxDropped: n.reg.Value(obs.MetricTransportInboxDrop),
		Flushes:      n.reg.Value(obs.MetricTransportFlushes),
		Coalesced:    n.reg.Value(obs.MetricTransportCoalesced),
		Redials:      n.reg.Value(obs.MetricTransportRedials),
		LeaderFlaps:  n.reg.Value(obs.MetricOmegaFlaps),

		BatchFlushes:       n.reg.Value(obs.MetricBatchFlushes),
		BatchFullFlushes:   n.reg.Value(obs.MetricBatchFullFlushes),
		BatchLingerFlushes: n.reg.Value(obs.MetricBatchLingerFlushes),
		BatchOps:           n.reg.Value(obs.MetricBatchOps),
		BatchTarget:        int(n.reg.Value(obs.MetricBatchTarget)),
		BatchQueued:        int(n.reg.Value(obs.MetricBatchQueued)),
		Undelivered:        int(n.reg.Value(obs.MetricEtobUndelivered)),
	}
	if n.fault != nil {
		st.Injected = n.reg.Value(obs.MetricTransportInjected)
	}
	st.Snapshot = snap
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleHealthz answers load-balancer probes: 200 while serving, 503 once
// draining so the front door routes around a node that is on its way out.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if n.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
