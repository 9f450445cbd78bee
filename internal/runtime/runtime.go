// Package runtime runs the same protocol automata as internal/sim, but live:
// one event loop per process, a pluggable Transport as the wire, wall-clock
// ticks — the "real processes over a real network" realization of the
// paper's model. It also provides the one failure detector that is actually
// IMPLEMENTED from message passing rather than read from an oracle: a
// heartbeat-based Ω (a process trusts the smallest-ID process it has heard
// any frame from within LeaderTimeout; only a process that trusts itself
// beats all peers with higher IDs, a follower beats only its leader, and a
// link gets a heartbeat only after half its reader's window of silence:
// LeaderTimeout/2 from a self-trusting process, DegradedAfter/2 from a
// follower), which is how Ω is realized in practice under partial synchrony.
//
// The package splits into three layers:
//
//   - Transport (transport.go): the wire. ChanTransport joins in-process
//     replicas over buffered channels (the reference implementation, used by
//     Cluster and the examples); TCPTransport (tcp.go) makes replicas
//     separate OS processes exchanging length-prefixed, self-contained binary
//     frames (payload types encode themselves through package wire) over
//     reconnecting per-peer connections (used by internal/node). The
//     interface's contract spells out each implementation's delivery
//     guarantees and why lossy ones pair with internal/retransmit.
//
//   - Proc (proc.go): the per-process event loop — ticks, heartbeat Ω,
//     local operations, frame reception — written against Transport only,
//     so the SAME automaton binary runs over any wire. It wakes only for
//     due work: one timer, set to the first tick the automaton (a
//     model.Waker) says is due, the next beat, or the leader's liveness
//     expiry; ticks with nothing to do run late, just before the next step.
//
//   - Cluster (this file): n Procs over a ChanNetwork, the in-process
//     deployment.
//
// Conformance: a Proc can record its run into a trace.StepLog; Replay
// (replay.go) re-executes the log through the deterministic step discipline
// and checks that every step's emissions match — the oracle pinning that no
// transport forked the automaton semantics.
//
// The deterministic kernel remains the substrate for all experiments and
// property checks; this runtime backs the runnable examples and the
// deployable service plane (internal/node, internal/lb, cmd/ecnode).
package runtime

import (
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultLeaderTimeout is Options.LeaderTimeout when it is left unset.
const DefaultLeaderTimeout = 20 * time.Millisecond

// Options configure a live process (and, via NewCluster, a live cluster).
type Options struct {
	// TickInterval is the λ-step period of every process. Default 2ms. Every
	// tick runs, but one that a model.Waker automaton reports as idle runs
	// late, just before the process's next step (see Proc).
	TickInterval time.Duration
	// LeaderTimeout is how long without any frame from a peer before a
	// process stops trusting it. Default DefaultLeaderTimeout. It also paces
	// a self-trusting process's heartbeats: it sends Heartbeat to each peer
	// with a higher ID once no frame has gone to that peer for
	// LeaderTimeout/2.
	LeaderTimeout time.Duration
	// DegradedAfter is the peer-silence window a leader's degraded-mode
	// check reads (internal/node; see Proc.PeersHeard). It paces a
	// follower's heartbeats: a process that trusts another beats only that
	// leader, once no frame has gone to it for DegradedAfter/2, so the leader
	// hears each follower at least every DegradedAfter/2. Default
	// LeaderTimeout.
	DegradedAfter time.Duration
	// Delay, if non-nil, returns the artificial link delay per message
	// (ChanNetwork fabrics only; wire transports have real delays).
	Delay func(from, to model.ProcID) time.Duration
	// InboxSize is the per-process frame buffer. Default 8192. A full inbox
	// DROPS incoming peer frames (a process's messages to itself never enter
	// it; see Proc) — counted on the transport (Transport.Dropped,
	// Cluster.Dropped) and surfaced to an Observer that implements
	// DropObserver — instead of blocking the sender: a slow or wedged peer
	// must not stall the whole replica mid-broadcast. Protocols that must
	// survive drops wrap themselves in internal/retransmit.
	InboxSize int
	// Observer receives run events (a trace.Recorder works). Optional.
	Observer sim.Observer
	// StepLog, if non-nil, records every automaton step (trigger, detector
	// value, clock, emissions) for conformance replay — see trace.StepLog
	// and Replay.
	StepLog *trace.StepLog
	// ClockEpoch is the zero point of the process-local clock (Context.Now
	// and retransmission epochs derive from it). Zero means "process start",
	// the in-process Cluster behavior. Deployable nodes set a fixed epoch
	// (internal/node uses the Unix epoch) so that a RESTARTED process gets a
	// fresh, strictly larger incarnation epoch instead of colliding with its
	// previous life at Now=0.
	ClockEpoch time.Time
}

// DropObserver is an optional extension of sim.Observer: implementations are
// told about every frame dropped on inbox overflow. The base Observer
// interface is unchanged so existing observers keep compiling.
type DropObserver interface {
	OnDrop(from, to model.ProcID, payload any)
}

func (o Options) withDefaults() Options {
	if o.TickInterval <= 0 {
		o.TickInterval = 2 * time.Millisecond
	}
	if o.LeaderTimeout <= 0 {
		o.LeaderTimeout = DefaultLeaderTimeout
	}
	if o.DegradedAfter <= 0 {
		o.DegradedAfter = o.LeaderTimeout
	}
	if o.InboxSize <= 0 {
		o.InboxSize = 8192
	}
	if o.Observer == nil {
		o.Observer = sim.NopObserver{}
	}
	return o
}

// Cluster is a set of live processes over an in-process ChanNetwork.
type Cluster struct {
	n     int
	opts  Options
	nw    *ChanNetwork
	procs []*Proc
}

// NewCluster builds and starts n processes running the automata produced by
// factory. Call Stop (or defer it) to shut the cluster down.
func NewCluster(n int, factory model.AutomatonFactory, opts Options) *Cluster {
	if n < 2 {
		panic("runtime: need at least 2 processes")
	}
	opts = opts.withDefaults()
	var onDrop func(from, to model.ProcID, payload any)
	if d, ok := opts.Observer.(DropObserver); ok {
		onDrop = d.OnDrop
	}
	nw := NewChanNetwork(n, ChanNetworkConfig{
		InboxSize: opts.InboxSize,
		Delay:     opts.Delay,
		OnDrop:    onDrop,
	})
	c := &Cluster{n: n, opts: opts, nw: nw}
	for _, p := range model.Procs(n) {
		c.procs = append(c.procs, NewProc(nw.Endpoint(p), factory, opts))
	}
	return c
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.n }

// Proc returns the live process p (for transport-level inspection).
func (c *Cluster) Proc(p model.ProcID) *Proc {
	c.nw.Endpoint(p) // panics on an unknown process, like the cluster always has
	return c.procs[p-1]
}

// Submit delivers an external input (operation invocation) to process p.
func (c *Cluster) Submit(p model.ProcID, in any) {
	c.Proc(p).Submit(in)
}

// Inspect runs f on process p's automaton inside its own event loop (safe
// live access) and waits for completion. Returns false if p has crashed.
func (c *Cluster) Inspect(p model.ProcID, f func(model.Automaton)) bool {
	return c.Proc(p).Inspect(f)
}

// Crash stops process p (it takes no further steps; messages to it are
// dropped).
func (c *Cluster) Crash(p model.ProcID) {
	c.Proc(p).Stop()
}

// Dropped returns the total frames dropped on inbox overflow across the
// cluster (see Options.InboxSize).
func (c *Cluster) Dropped() int64 { return c.nw.Dropped() }

// Stop shuts the whole cluster down and waits for every process to exit.
func (c *Cluster) Stop() {
	for _, p := range c.procs {
		p.Stop()
	}
	// A loop still running may be sending; the network closes only after.
	for _, p := range c.procs {
		<-p.Done()
	}
	c.nw.Close()
}
