package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Proc is one live process: the event loop that runs a single automaton over
// any Transport. It is the piece the old Cluster hardwired to channels, now
// transport-agnostic — the same loop drives an in-process replica over a
// ChanTransport and a deployable node over a TCPTransport.
//
// The loop multiplexes four event sources, taking one atomic step at a time
// (the step model of §2):
//
//   - frames from the transport (message receptions; every frame from a peer
//     refreshes that peer's liveness, and Heartbeat frames are consumed by
//     the loop itself),
//   - the process's messages to itself, which never touch the transport:
//     they wait in a loop-local FIFO, so a self-send is as lossless as the
//     kernel's self-link (no inbox overflow can drop one), and the
//     retransmission layer sends them raw,
//   - local operations (Submit inputs and Inspect calls),
//   - one timer, for due work only.
//
// Ticks (λ-steps, the paper's local timeout) fall on a TickInterval grid
// from the loop's start, and every one of them runs, each as its own Tick
// step: before any event is handled, the loop first runs every tick the
// wall clock has accrued since the last one it ran. The timer therefore
// need not fire for a tick that would only advance counters. An automaton
// that implements model.Waker says how many of the coming ticks are of that
// kind, and the timer is set to the earliest of the first tick that is due,
// the first link due a beat, and the expiry of the current leader's
// liveness, which is the one change of Ω no frame announces. Every event
// sets it again, and when none of these is pending it is not set at all. An
// automaton that is not a Waker has every tick due, so it wakes once per
// TickInterval as with a ticker. Steps, their order and their detector
// values are those of a loop that woke on every tick, up to when within a
// stretch of idle ticks each one runs; StepLog and Replay see every tick.
//
// The heartbeat Ω is the one failure detector actually IMPLEMENTED from
// message passing: each process trusts the smallest-ID process it has heard
// from within LeaderTimeout (itself included). Any frame from a peer is
// evidence that the peer is alive, so a protocol frame counts as much as a
// Heartbeat. Heartbeats go only where they are read, as in
// communication-efficient Ω (Aguilera, Delporte-Gallet, Fauconnier and
// Toueg, PODC 2004), where only the leader sends forever, and only into
// silence: a link is beaten once it has carried no frame for half its
// reader's window.
//
//   - a process that trusts itself beats every peer with a higher ID, each
//     once its link has been silent for LeaderTimeout/2: those are the
//     processes whose Ω it can be;
//   - a process that trusts another beats only that leader, once the link
//     has been silent for DegradedAfter/2: the leader's degraded-mode check
//     (PeersHeard) is the only reader of those frames.
//
// Followers do not beat each other. The first beat comes one tick after the
// loop starts; after that each beaten link has its own deadline, half a
// window after the last frame handed the transport for it, protocol frames
// included. A live link to a reader is therefore silent for at most half
// that reader's window, and an idle one carries one Heartbeat per half
// window. A process that starts beating a link, as a new leader or a
// follower of a new leader, beats it at once if it has been silent that
// long. Under partial synchrony the timely processes stabilize on one
// leader, which is how Ω is realized in practice. A follower hears of the
// next-lowest ID only once that process trusts itself and beats; since the
// new leader beats a silent link the moment its own view of the old one
// expires, a fail-over takes about LeaderTimeout, and one extra Ω change
// only at a follower whose view expired first.
type Proc struct {
	tr   Transport
	opts Options
	self model.ProcID
	n    int
	auto model.Automaton

	ops      chan localOp
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	clockBase time.Time
	msgSeq    atomic.Int64
	lastHeard []atomic.Int64 // index q-1: last frame received from q, unix nanos

	lastSent   []time.Time  // event-loop-local, index q-1: the last frame handed the transport for q; zero before the first
	selfQ      []Frame      // event-loop-local: self-sends not yet delivered, oldest first
	prevLeader model.ProcID // event-loop-local: Ω output at the previous step
	nextTick   time.Time    // event-loop-local: the first tick not yet run
	firstBeat  time.Time    // event-loop-local: when a link no frame has gone to is first beaten
	ctx        liveCtx      // event-loop-local: the step context, reset per step
	flaps      atomic.Int64 // Ω output changes observed across steps
	heartbeats atomic.Int64 // Heartbeat frames sent
	wakeups    atomic.Int64 // timer wake-ups taken
}

type localOp struct {
	input   any
	inspect func(model.Automaton)
	done    chan struct{}
}

// NewProc builds and starts a process over tr, running the automaton the
// factory produces for tr.Self(). Call Stop (or Close the transport and
// Stop) to shut it down.
func NewProc(tr Transport, factory model.AutomatonFactory, opts Options) *Proc {
	opts = opts.withDefaults()
	p := &Proc{
		tr:        tr,
		opts:      opts,
		self:      tr.Self(),
		n:         tr.N(),
		auto:      factory(tr.Self(), tr.N()),
		ops:       make(chan localOp, 64),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		clockBase: opts.ClockEpoch,
		lastHeard: make([]atomic.Int64, tr.N()),
		lastSent:  make([]time.Time, tr.N()),
	}
	if p.clockBase.IsZero() {
		p.clockBase = time.Now()
	}
	go p.run()
	return p
}

// Self returns the process ID.
func (p *Proc) Self() model.ProcID { return p.self }

// N returns the cluster size.
func (p *Proc) N() int { return p.n }

// Transport returns the endpoint this process runs over.
func (p *Proc) Transport() Transport { return p.tr }

// Done is closed when the event loop has exited.
func (p *Proc) Done() <-chan struct{} { return p.done }

// now returns the process-local clock: milliseconds since ClockEpoch. The
// paper's processes cannot read a global clock; this value is used only for
// logging, trace timestamps, and incarnation epochs (see Options.ClockEpoch).
func (p *Proc) now() model.Time { return p.clock(time.Now()) }

// clock returns the process-local clock reading at wall instant at.
func (p *Proc) clock(at time.Time) model.Time {
	return model.Time(at.Sub(p.clockBase) / time.Millisecond)
}

// Submit delivers an external input (operation invocation) to the process.
// It returns false if the process has stopped.
func (p *Proc) Submit(in any) bool {
	op := localOp{input: in}
	select {
	case <-p.stop:
		return false
	case p.ops <- op:
		p.opts.Observer.OnInput(p.self, p.now(), in)
		return true
	}
}

// Inspect runs f on the automaton inside the event loop (safe live access)
// and waits for completion. Returns false if the process has stopped.
func (p *Proc) Inspect(f func(model.Automaton)) bool {
	op := localOp{inspect: f, done: make(chan struct{})}
	select {
	case <-p.stop:
		return false
	case p.ops <- op:
	}
	select {
	case <-op.done:
		return true
	case <-p.stop:
		return false
	}
}

// Leader returns the process's current heartbeat-Ω output.
func (p *Proc) Leader() model.ProcID {
	return p.leaderAt(time.Now())
}

// LeaderFlaps returns how many times the heartbeat Ω's output has CHANGED
// across this process's steps — the oscillation count the paper's eventual
// guarantees ask to see settle. It is sampled per step (the granularity at
// which the automaton can observe Ω), so a flap between two steps that
// round-trips to the same leader is invisible, exactly as it is to the
// protocol. Safe to read from any goroutine.
func (p *Proc) LeaderFlaps() int64 { return p.flaps.Load() }

// HeartbeatsSent returns how many Heartbeat frames this process has sent:
// one each time a link it beats has been silent for half its reader's
// window. Safe to read from any goroutine.
func (p *Proc) HeartbeatsSent() int64 { return p.heartbeats.Load() }

// Wakeups returns how many times the loop's timer has fired: once for each
// due tick, beat or leader expiry that no other event came before. An idle
// follower takes one per beat, a process that beats no link none for beats,
// and a Waker-less automaton one per tick. Safe to read from any goroutine.
func (p *Proc) Wakeups() int64 { return p.wakeups.Load() }

// PeersHeard returns how many PEERS (self excluded) this process has received
// a frame of any kind from within the given window. It is the live
// connectivity signal the service plane's degraded mode keys on: a replica
// that has heard nobody for a leader-timeout span is cut off from the mesh —
// its Ω output has collapsed to itself and nothing it accepts can replicate
// until the partition heals.
func (p *Proc) PeersHeard(window time.Duration) int {
	cutoff := time.Now().Add(-window).UnixNano()
	heard := 0
	for i := range p.lastHeard {
		if model.ProcID(i+1) == p.self {
			continue
		}
		if p.lastHeard[i].Load() >= cutoff {
			heard++
		}
	}
	return heard
}

// Stop terminates the event loop and closes the transport endpoint.
// Idempotent; it does not wait for the loop to exit (use Done).
func (p *Proc) Stop() {
	p.stopOnce.Do(func() {
		close(p.stop)
		_ = p.tr.Close()
	})
}

func (p *Proc) run() {
	defer close(p.done)
	// The first beat comes one tick in, so that the half-window deadline does
	// not delay Ω at boot. Not at once: peers booted just after this process
	// are not listening yet, and a failed dial costs a wire transport its
	// redial backoff.
	p.nextTick = time.Now().Add(p.opts.TickInterval)
	p.firstBeat = p.nextTick
	timer := time.NewTimer(p.opts.TickInterval)
	defer timer.Stop()

	ready := make(chan struct{})
	close(ready)
	p.step(trace.StepInit, model.NoProc, nil, nil, time.Now(), func(ctx *liveCtx) { p.auto.Init(ctx) })
	inbox := p.tr.Recv()
	for {
		var self <-chan struct{} // ready while a self-send waits
		if len(p.selfQ) > 0 {
			self = ready
		}
		select {
		case <-p.stop:
			return
		case op := <-p.ops:
			p.runTicks()
			if op.inspect != nil {
				op.inspect(p.auto)
				close(op.done)
				break
			}
			in := op.input
			p.step(trace.StepInput, model.NoProc, nil, in, time.Now(), func(ctx *liveCtx) { p.auto.Input(ctx, in) })
		case f := <-inbox:
			p.runTicks()
			p.handle(f)
		case <-self:
			p.runTicks()
			f := p.selfQ[0]
			p.selfQ = append(p.selfQ[:0], p.selfQ[1:]...)
			p.handle(f)
		case <-timer.C:
			p.wakeups.Add(1)
			p.runTicks()
			p.beat(p.leaderAt(time.Now()))
		}
		if wake := p.nextWake(); wake.IsZero() {
			timer.Stop()
		} else {
			timer.Reset(time.Until(wake))
		}
	}
}

// runTicks runs, one Tick step each, every tick the wall clock has accrued
// since the last one run. Each runs with the clock reading and the Ω output
// of its own instant on the tick grid: no frame has been handled since
// (every event runs the accrued ticks first), so the liveness stamps are
// those the tick would have read on time.
func (p *Proc) runTicks() {
	for now := time.Now(); !p.nextTick.After(now); {
		at := p.nextTick
		p.nextTick = at.Add(p.opts.TickInterval)
		p.step(trace.StepTick, model.NoProc, nil, nil, at, func(ctx *liveCtx) { p.auto.Tick(ctx) })
	}
}

// nextWake returns when the loop next has work without an event: the first
// tick the automaton says is due, the first link due a beat, or the expiry
// of the current leader's liveness, whichever comes first. It returns the
// zero Time when none of these is pending.
func (p *Proc) nextWake() time.Time {
	leader := p.leaderAt(time.Now())
	var wake time.Time
	earliest := func(at time.Time) {
		if wake.IsZero() || at.Before(wake) {
			wake = at
		}
	}
	half := p.beatHalf(leader)
	for q := model.ProcID(1); int(q) <= p.n; q++ {
		if p.beats(leader, q) {
			earliest(p.beatDue(q, half))
		}
	}
	if k := model.IdleTicks(p.auto, fd.OmegaValue(leader)); k >= 0 {
		earliest(p.nextTick.Add(time.Duration(k) * p.opts.TickInterval))
	}
	if leader != p.self {
		earliest(time.Unix(0, p.lastHeard[leader-1].Load()).Add(p.opts.LeaderTimeout + 1))
	}
	return wake
}

// beats reports whether this process beats q under leader: a process that
// trusts itself beats every peer with a higher ID, a follower only its
// leader.
func (p *Proc) beats(leader, q model.ProcID) bool {
	if leader == p.self {
		return q > p.self
	}
	return q == leader
}

// beatHalf returns half the window of the process that reads this
// process's beats under leader: LeaderTimeout/2 for a process that trusts
// itself, DegradedAfter/2 for a follower.
func (p *Proc) beatHalf(leader model.ProcID) time.Duration {
	if leader == p.self {
		return p.opts.LeaderTimeout / 2
	}
	return p.opts.DegradedAfter / 2
}

// beatDue returns when the link to q is due a Heartbeat: half (of its
// reader's window) after the last frame handed the transport for q, or at
// the first beat if no frame was.
func (p *Proc) beatDue(q model.ProcID, half time.Duration) time.Time {
	if last := p.lastSent[q-1]; !last.IsZero() {
		return last.Add(half)
	}
	return p.firstBeat
}

// beat sends a Heartbeat into each link this process beats under leader
// that is due one (see beatDue).
func (p *Proc) beat(leader model.ProcID) {
	now := time.Now()
	half := p.beatHalf(leader)
	for q := model.ProcID(1); int(q) <= p.n; q++ {
		if p.beats(leader, q) && !now.Before(p.beatDue(q, half)) {
			_ = p.tr.Send(Frame{From: p.self, To: q, Payload: Heartbeat{}})
			p.lastSent[q-1] = now
			p.heartbeats.Add(1)
		}
	}
}

func (p *Proc) handle(f Frame) {
	if f.From >= 1 && int(f.From) <= p.n {
		p.lastHeard[f.From-1].Store(time.Now().UnixNano())
	}
	if _, ok := f.Payload.(Heartbeat); ok {
		return
	}
	p.opts.Observer.OnDeliver(p.now(), sim.Message{
		ID: f.ID, From: f.From, To: p.self, Payload: f.Payload, SentAt: f.SentAt,
	})
	p.step(trace.StepRecv, f.From, f.Payload, nil, time.Now(), func(ctx *liveCtx) {
		p.auto.Recv(ctx, f.From, f.Payload)
	})
}

// step executes one atomic step at wall instant at: fix the clock and
// detector value, run the handler, and (when conformance logging is on)
// append the recorded step — trigger, FD, clock, and emissions — to the
// StepLog. Steps never nest (self-sends wait in selfQ), so one context
// serves every step, as the kernel's does; the automaton may not keep it
// past the step (see model.Context). The step record is the step's own.
func (p *Proc) step(kind trace.StepKind, from model.ProcID, payload, in any, at time.Time, h func(*liveCtx)) {
	ctx := &p.ctx
	*ctx = liveCtx{p: p, t: p.clock(at), leader: p.leaderAt(at)}
	// Ω flap accounting: prevLeader is touched only here, inside the
	// single-threaded event loop; the counter is atomic so /metrics can read
	// it from a scraping goroutine. The init step seeds without counting.
	if ctx.leader != p.prevLeader {
		if p.prevLeader != model.NoProc {
			p.flaps.Add(1)
		}
		p.prevLeader = ctx.leader
	}
	if p.opts.StepLog != nil {
		ctx.rec = &trace.Step{
			P: p.self, Kind: kind, From: from, Payload: payload, In: in,
			FD: fd.OmegaValue(ctx.leader), Now: ctx.t,
		}
	}
	h(ctx)
	if ctx.rec != nil {
		p.opts.StepLog.Append(*ctx.rec)
	}
}

// leaderAt is the heartbeat Ω at wall instant at: the smallest-ID process
// believed alive (itself, or a peer any frame was received from within
// LeaderTimeout before at).
func (p *Proc) leaderAt(at time.Time) model.ProcID {
	cutoff := at.Add(-p.opts.LeaderTimeout).UnixNano()
	for q := model.ProcID(1); int(q) <= p.n; q++ {
		if q == p.self {
			return q
		}
		if p.lastHeard[q-1].Load() >= cutoff {
			return q
		}
	}
	return p.self
}

// sendProto transmits one protocol message: stamp a per-process message ID
// (unique across the cluster by construction), notify the observer, and hand
// the frame to the transport, or to the self-send FIFO when it is addressed
// to this process. A peer frame restarts the link's beat deadline.
func (p *Proc) sendProto(to model.ProcID, payload any) {
	id := int64(p.self)<<40 | p.msgSeq.Add(1)
	at := time.Now()
	now := p.clock(at)
	p.opts.Observer.OnSend(now, sim.Message{ID: id, From: p.self, To: to, Payload: payload, SentAt: now})
	f := Frame{From: p.self, To: to, ID: id, SentAt: now, Payload: payload}
	if to == p.self {
		p.selfQ = append(p.selfQ, f)
		return
	}
	if to >= 1 && int(to) <= p.n {
		p.lastSent[to-1] = at
	}
	_ = p.tr.Send(f)
}

// liveCtx implements model.Context for one live step (see step).
type liveCtx struct {
	p      *Proc
	t      model.Time
	leader model.ProcID
	rec    *trace.Step // non-nil when conformance logging is on
}

var _ model.Context = (*liveCtx)(nil)

func (c *liveCtx) Self() model.ProcID { return c.p.self }
func (c *liveCtx) N() int             { return c.p.n }
func (c *liveCtx) Now() model.Time    { return c.t }
func (c *liveCtx) FD() any            { return fd.OmegaValue(c.leader) }

func (c *liveCtx) Send(to model.ProcID, payload any) {
	if c.rec != nil {
		c.rec.Sends = append(c.rec.Sends, trace.SendRec{To: to, Payload: payload})
	}
	c.p.sendProto(to, payload)
}

func (c *liveCtx) Broadcast(payload any) {
	for q := model.ProcID(1); int(q) <= c.p.n; q++ {
		c.Send(q, payload)
	}
}

func (c *liveCtx) Output(v any) {
	if c.rec != nil {
		c.rec.Outputs = append(c.rec.Outputs, v)
	}
	c.p.opts.Observer.OnOutput(c.p.self, c.t, v)
}
