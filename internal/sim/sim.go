// Package sim provides a deterministic discrete-event simulator of the
// paper's asynchronous message-passing system (§2): n processes taking steps
// under a discrete global clock, reliable links with unbounded (but finite)
// message delays, crash failures injected from a failure pattern, and a
// failure-detector oracle queried at every step.
//
// Link behavior is pluggable: a NetworkModel decides every message's delay
// and delivery, making the environment — the paper's central parameter — a
// first-class object. Options.Network carries a NetworkFactory (not an
// instance): each kernel builds and seeds a private model, so one Options
// value is safe to share across sequential and concurrent kernels alike —
// the property the parallel sweep engine in internal/bench relies on. Three deterministic seeded models ship
// with the kernel: Uniform (the default: i.i.d. delays in [MinDelay,
// MaxDelay]), Partitioned (crash-free partitions that form and heal on a
// schedule, buffering cross-partition traffic until heal time so eventual
// delivery still holds), MultiPartitioned (its k-side generalization), and
// Jittery (asymmetric per-link latency classes with occasional spikes,
// modeling partial synchrony). Preset names common environments ("uniform",
// "partition", "jitter-spiky", ...); adversarial models — lossy links,
// divergence-maximizing schedulers — live in internal/sim/adversary and
// register their own presets. Models STACK through ComposeNetworks (delays
// add, delivery needs unanimity, per-layer seed streams), and a model that
// implements LeaderAware is handed a leadership observation by the kernel —
// a pure query for the Ω component of the run's detector history, the same
// history the automata read — so protocol-aware adversaries
// (adversary.LeaderStarver) can aim at the current leader.
//
// The failure half of the environment is pluggable too: Options.Faults takes
// a model.FaultModel, generalizing the monotone crash pattern to up/down
// intervals (churn). A process whose down interval ends restarts with fresh
// automaton state (Init re-runs); everything sent to it while down is
// dropped. With Faults nil the kernel consumes the failure pattern itself —
// the monotone special case — through the same interface.
//
// Determinism: given the same seed, failure pattern, detector, network
// model, and automaton factory, a run is bit-for-bit reproducible. All
// scheduling choices are drawn from seeded PRNGs and all tie-breaks are
// explicit, which is what makes the property checkers in internal/trace and
// the experiment tables in internal/bench meaningful.
package sim

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/slabheap"
)

// Options configure a simulated run.
type Options struct {
	// Seed seeds the PRNG used for message delays (it is passed to the
	// network model's Reset).
	Seed int64
	// MinDelay and MaxDelay bound the link delay of every message, in clock
	// ticks, when Network is nil (the default Uniform model). Set them equal
	// for a fixed-delay network (used to measure latency in communication
	// steps). Defaults: 10 and 20. Ignored when Network is non-nil.
	MinDelay model.Time
	MaxDelay model.Time
	// Network is a FACTORY for the link-behavior engine: each kernel calls
	// it once at construction to obtain its own fresh NetworkModel, then
	// seeds that instance with Network().Reset(Seed). Nil selects
	// NewUniform(MinDelay, MaxDelay); PresetFactory names the other
	// environments. Because every kernel gets a private instance, one
	// Options value can be shared freely across sequential AND concurrent
	// kernels: no two kernels ever re-seed one stateful model.
	Network NetworkFactory
	// Faults optionally generalizes the run's failure pattern to up/down
	// intervals (churn): when non-nil, it — not the FailurePattern passed to
	// New — decides which processes take steps and receive messages at each
	// instant. A process whose down interval ends RESTARTS: its automaton is
	// rebuilt from the factory (state reset) and re-runs Init; deliveries and
	// inputs that arrived while it was down are dropped. Nil keeps the
	// monotone crash semantics of the failure pattern (which itself implements
	// model.FaultModel), bit-for-bit.
	//
	// Unlike Network this is an instance, not a factory: FaultModel
	// implementations are immutable pure queries (see model.FaultModel), so
	// one value is safe to share across sequential and concurrent kernels.
	Faults model.FaultModel
	// TickInterval is the period of λ-steps (the paper's "local timeout").
	// Default: 5. Ticks of distinct processes are staggered by one tick each
	// so no two processes ever step at the same instant.
	TickInterval model.Time
	// MaxTime bounds the run; events scheduled after MaxTime do not execute.
	// Default: 100000.
	MaxTime model.Time
}

func (o Options) withDefaults() Options {
	if o.MinDelay == 0 && o.MaxDelay == 0 {
		o.MinDelay, o.MaxDelay = 10, 20
	}
	if o.MaxDelay < o.MinDelay {
		o.MaxDelay = o.MinDelay
	}
	if o.TickInterval <= 0 {
		o.TickInterval = 5
	}
	if o.MaxTime <= 0 {
		o.MaxTime = 100000
	}
	return o
}

// Message is a message in transit, as scheduled by the kernel.
type Message struct {
	// ID is the unique kernel-assigned message identifier (1-based).
	ID int64
	// From and To identify the link.
	From, To model.ProcID
	// Payload is the protocol-level content.
	Payload any
	// SentAt is the time of the sending step.
	SentAt model.Time
	// Depth is the causal hop depth: 1 for a message sent from an input or
	// λ step, depth(trigger)+1 for a message sent while processing another
	// message. Used to report latency in "communication steps".
	Depth int
	// CauseID is the ID of the message whose reception triggered the sending
	// step, or 0 for input/λ steps.
	CauseID int64
}

// Observer receives run events. All methods are called synchronously from
// the simulation loop; implementations must not call back into the kernel.
type Observer interface {
	OnSend(t model.Time, m Message)
	OnDeliver(t model.Time, m Message)
	OnOutput(p model.ProcID, t model.Time, v any)
	OnInput(p model.ProcID, t model.Time, v any)
}

// NopObserver is an Observer that ignores everything; embed it to implement
// only the callbacks you need.
type NopObserver struct{}

// OnSend implements Observer.
func (NopObserver) OnSend(model.Time, Message) {}

// OnDeliver implements Observer.
func (NopObserver) OnDeliver(model.Time, Message) {}

// OnOutput implements Observer.
func (NopObserver) OnOutput(model.ProcID, model.Time, any) {}

// OnInput implements Observer.
func (NopObserver) OnInput(model.ProcID, model.Time, any) {}

type eventKind int

const (
	evDeliver eventKind = iota + 1
	evTick
	evInput
	evRestart
	evDeliverBatch
)

// event is one queued kernel event, stored in place in the queue's slab; its
// time and FIFO tie-break sequence live in the heap key.
type event struct {
	kind eventKind
	p    model.ProcID // target process (tick, input, restart)
	gen  int32        // tick-chain generation (tick); see Kernel.tickGen
	msg  Message      // deliver; for a batch, the shared template (To/ID unset)
	in   any          // input

	// Batched broadcast delivery (evDeliverBatch): one heap entry carries
	// every recipient of one broadcast whose link delay landed on the same
	// arrival instant (the delay class). recips is pooled storage owned by
	// the event until its final member dispatches; baseID reconstructs each
	// member's message ID (IDs were stamped per recipient at send time, in
	// process order, so member q's ID is baseID+q-1); cursor is the index of
	// the next member to deliver — members dispatch ONE PER LOOP ITERATION in
	// RunUntil, so event granularity (and stop-callback semantics) is
	// identical to n individual delivery events.
	recips []model.ProcID
	baseID int64
	cursor int32
}

// Kernel is a deterministic simulation of one run R = (F, H, H_I, H_O, S, T).
type Kernel struct {
	fp *model.FailurePattern
	// faults is the liveness source: Options.Faults, or fp itself. monotone
	// devirtualizes the common case — it aliases fp whenever no custom fault
	// model is installed, so the per-event liveness check in dispatch stays a
	// direct concrete call instead of an interface call (see Kernel.up).
	faults   model.FaultModel
	monotone *model.FailurePattern // nil iff Options.Faults overrides fp
	factory  model.AutomatonFactory
	det      fd.Detector       // the history, queried at every step
	autos    []model.Automaton // index p-1
	opts     Options
	net      NetworkModel
	procs    []model.ProcID // Π, computed once (hot-path allocation saver)
	// tickGen guards against duplicate tick chains under churn: every tick
	// event carries the generation current when it was scheduled, a restart
	// bumps the process's generation, and stale-generation ticks die silently.
	// Without it, a down interval short enough to contain no tick would leave
	// the old chain alive next to the restart's new one.
	tickGen []int32 // index p-1
	// bcClasses is the broadcast-time delay-classing scratch (reused across
	// broadcasts): recipients of one broadcast grouped by drawn delay, so the
	// heap receives one entry per distinct arrival instant instead of one per
	// recipient. recipPool recycles the member slices when batch events
	// complete, keeping steady-state broadcast delivery allocation-free.
	bcClasses []bcClass
	recipPool [][]model.ProcID

	// restartDue marks (p, t) pairs whose evRestart has not yet dispatched.
	// Pre-run inputs carry smaller FIFO seqs than the restart events enqueued
	// in start(), so at an equal instant the input would otherwise execute
	// against the DYING incarnation — whose state (including any
	// retransmission wrapper's unacked envelopes) is wiped by the restart in
	// the same instant, silently losing the input. An input that ties with a
	// pending restart is re-enqueued instead, landing after the restart: a
	// restart is the first instant of the new incarnation, so the new state
	// receives it.
	restartDue map[restartKey]struct{}

	queue    slabheap.Heap[event] // ordered by (t, seq)
	sctx     stepCtx              // reused per step
	seq      int64
	msgSeq   int64
	now      model.Time
	obs      Observer
	started  bool
	nSteps   int64
	nSent    int64
	nDropped int64
	nLost    int64
}

// New builds a kernel over failure pattern fp, detector history det, and the
// automaton factory. The run starts when Run/RunUntil is first called.
//
// Every step reads det directly. The histories in internal/fd answer a
// query without mutating anything (and Ω's and Σ's without allocating), so
// one det can be shared across kernels, concurrently running ones included.
func New(fp *model.FailurePattern, det fd.Detector, factory model.AutomatonFactory, opts Options) *Kernel {
	opts = opts.withDefaults()
	var net NetworkModel
	if opts.Network != nil {
		net = opts.Network()
		if net == nil {
			panic("sim: Options.Network factory returned nil")
		}
	} else {
		net = NewUniform(opts.MinDelay, opts.MaxDelay)
	}
	if err := ValidateNetwork(net, fp.N()); err != nil {
		panic(err.Error())
	}
	net.Reset(opts.Seed)
	var faults model.FaultModel = fp
	monotone := fp
	if opts.Faults != nil {
		faults = opts.Faults
		monotone = nil
	}
	k := &Kernel{
		fp:       fp,
		faults:   faults,
		monotone: monotone,
		factory:  factory,
		det:      det,
		autos:    make([]model.Automaton, fp.N()),
		opts:     opts,
		net:      net,
		procs:    model.Procs(fp.N()),
		tickGen:  make([]int32, fp.N()),
		obs:      NopObserver{},
	}
	k.queue.Grow(256)
	for i, p := range k.procs {
		k.autos[i] = factory(p, fp.N())
	}
	// Protocol-aware adversaries get their leadership observation here: the
	// hook reads the Ω component of the run's detector history, so the
	// network model sees exactly the leader values the automata see.
	if la, ok := net.(LeaderAware); ok {
		la.ObserveLeadership(func(p model.ProcID, t model.Time) (model.ProcID, bool) {
			return fd.LeaderOf(det.Value(p, t))
		})
	}
	return k
}

// SetObserver installs the run observer. Must be called before Run.
func (k *Kernel) SetObserver(o Observer) {
	if k.started {
		panic("sim: SetObserver after run start")
	}
	if o == nil {
		o = NopObserver{}
	}
	k.obs = o
}

// Now returns the current global clock value.
func (k *Kernel) Now() model.Time { return k.now }

// N returns the number of processes.
func (k *Kernel) N() int { return k.fp.N() }

// Pattern returns the failure pattern of the run.
func (k *Kernel) Pattern() *model.FailurePattern { return k.fp }

// Detector returns the failure detector history of the run.
func (k *Kernel) Detector() fd.Detector { return k.det }

// Automaton returns the automaton of process p for post-run inspection.
func (k *Kernel) Automaton(p model.ProcID) model.Automaton { return k.autos[p-1] }

// Steps returns the number of steps executed so far.
func (k *Kernel) Steps() int64 { return k.nSteps }

// MessagesSent returns the number of messages sent so far.
func (k *Kernel) MessagesSent() int64 { return k.nSent }

// MessagesDropped returns messages dropped because the recipient crashed.
func (k *Kernel) MessagesDropped() int64 { return k.nDropped }

// MessagesLost returns messages the network model chose not to deliver.
// Always 0 under the kernel's built-in models, which honor eventual delivery
// as finite delay; lossy models (internal/sim/adversary.Lossy) make it
// non-zero, and pairing them with retransmission (internal/retransmit)
// restores eventual delivery end-to-end.
func (k *Kernel) MessagesLost() int64 { return k.nLost }

// Faults returns the liveness source of the run: Options.Faults when set,
// otherwise the failure pattern itself.
func (k *Kernel) Faults() model.FaultModel { return k.faults }

// up is the per-event liveness check (hot path: every tick, input, and
// delivery). The monotone fast path keeps the historical direct call.
func (k *Kernel) up(p model.ProcID, t model.Time) bool {
	if k.monotone != nil {
		return k.monotone.Alive(p, t)
	}
	return k.faults.Up(p, t)
}

// Network returns the network model driving link behavior in this run.
func (k *Kernel) Network() NetworkModel { return k.net }

// ScheduleInput schedules an external input (operation invocation) for
// process p at time t. Inputs scheduled for crashed processes are ignored at
// execution time.
func (k *Kernel) ScheduleInput(p model.ProcID, t model.Time, v any) {
	e := k.enqueue(t)
	e.kind, e.p, e.in = evInput, p, v
}

// enqueue stamps the FIFO tie-break sequence and reserves the event's slot
// in the heap's slab; the caller fills the event in place. Events are plain
// values living inside that backing array: no per-event allocation, no
// boxing, no freelist of pointers. The pointer is valid until the next
// enqueue.
func (k *Kernel) enqueue(t model.Time) *event {
	k.seq++
	slot := k.queue.Alloc()
	k.queue.Push(int64(t), k.seq, slot)
	return k.queue.Slot(slot)
}

func (k *Kernel) start() {
	if k.started {
		return
	}
	k.started = true
	// Initial configuration: every automaton initializes at time 0 in
	// process-ID order (deterministic), then periodic ticks are scheduled,
	// staggered by one tick per process so steps never coincide.
	for _, p := range k.procs {
		if k.up(p, 0) {
			k.step(p, func(ctx *stepCtx) { k.autos[p-1].Init(ctx) }, 0, 0)
		}
	}
	for i, p := range k.procs {
		e := k.enqueue(1 + model.Time(i))
		e.kind, e.p, e.gen = evTick, p, k.tickGen[p-1]
	}
	// Under churn, schedule one restart event per up-interval start. The
	// monotone FailurePattern path returns no restarts, so existing runs see
	// an identical event sequence.
	for _, p := range k.procs {
		for _, r := range k.faults.Restarts(p) {
			if r > k.opts.MaxTime {
				break // Restarts are strictly increasing per contract.
			}
			e := k.enqueue(r)
			e.kind, e.p = evRestart, p
			if k.restartDue == nil {
				k.restartDue = make(map[restartKey]struct{})
			}
			k.restartDue[restartKey{p: p, t: r}] = struct{}{}
		}
	}
}

// restartKey identifies one pending restart instant (see Kernel.restartDue).
type restartKey struct {
	p model.ProcID
	t model.Time
}

// Run executes the simulation until the global clock passes until (or
// MaxTime, whichever is smaller).
func (k *Kernel) Run(until model.Time) {
	k.RunUntil(until, nil)
}

// RunUntil executes the simulation until the clock passes maxTime, the event
// queue drains, or stop (if non-nil) returns true after some event.
//
// Batched broadcast deliveries (evDeliverBatch) expand here: the batch stays
// at the heap root — nothing enqueued during a member's step can order before
// it, since new events receive strictly larger sequence numbers — and one
// member dispatches per loop iteration, so the stop callback fires between
// individual deliveries exactly as it did when every recipient had its own
// heap entry. The batch pops (and its recipient slice recycles) only after
// its last member.
func (k *Kernel) RunUntil(maxTime model.Time, stop func(k *Kernel) bool) {
	k.start()
	if maxTime > k.opts.MaxTime {
		maxTime = k.opts.MaxTime
	}
	for k.queue.Len() > 0 {
		key := k.queue.Top()
		if model.Time(key.At) > maxTime {
			k.now = maxTime
			return
		}
		k.now = model.Time(key.At)
		if top := k.queue.Slot(key.Slot); top.kind == evDeliverBatch {
			k.deliverBatchMember(top)
			// The member's step may have grown the slab; re-resolve before
			// checking for exhaustion.
			if top = k.queue.Slot(key.Slot); int(top.cursor) >= len(top.recips) {
				k.queue.Pop()
				k.recipPool = append(k.recipPool, top.recips[:0])
				k.queue.Release(key.Slot)
			}
		} else {
			// Dispatching pushes new events, which may reuse or move the
			// slot, so the event is copied out before its slot is released.
			k.queue.Pop()
			e := *top
			k.queue.Release(key.Slot)
			k.dispatch(&e)
		}
		if stop != nil && stop(k) {
			return
		}
	}
}

// deliverBatchMember dispatches the next recipient of a batched broadcast
// delivery, reconstructing the member's Message from the shared template and
// the send-time ID base. The cursor advances before the step runs so the
// progress survives any slab growth the step causes.
func (k *Kernel) deliverBatchMember(e *event) {
	q := e.recips[e.cursor]
	e.cursor++
	m := e.msg
	m.To = q
	m.ID = e.baseID + int64(q-1)
	if k.up(q, k.now) {
		k.obs.OnDeliver(k.now, m)
		k.step(q, func(ctx *stepCtx) {
			k.autos[q-1].Recv(ctx, m.From, m.Payload)
		}, m.Depth, m.ID)
	} else {
		k.nDropped++
	}
}

func (k *Kernel) dispatch(e *event) {
	switch e.kind {
	case evTick:
		if e.gen != k.tickGen[e.p-1] {
			return // chain superseded by a restart's fresh one
		}
		if k.up(e.p, k.now) {
			k.step(e.p, func(ctx *stepCtx) { k.autos[e.p-1].Tick(ctx) }, 0, 0)
			next := k.enqueue(k.now + k.opts.TickInterval)
			next.kind, next.p, next.gen = evTick, e.p, e.gen
		}
	case evInput:
		if k.up(e.p, k.now) {
			if _, due := k.restartDue[restartKey{p: e.p, t: k.now}]; due {
				// The process restarts at this very instant and the restart
				// event is still queued behind us: defer the input past it so
				// the NEW incarnation — not the state about to be wiped —
				// receives it (see Kernel.restartDue).
				re := k.enqueue(k.now)
				re.kind, re.p, re.in = evInput, e.p, e.in
				return
			}
			k.obs.OnInput(e.p, k.now, e.in)
			k.step(e.p, func(ctx *stepCtx) { k.autos[e.p-1].Input(ctx, e.in) }, 0, 0)
		}
	case evDeliver:
		if k.up(e.msg.To, k.now) {
			k.obs.OnDeliver(k.now, e.msg)
			k.step(e.msg.To, func(ctx *stepCtx) {
				k.autos[e.msg.To-1].Recv(ctx, e.msg.From, e.msg.Payload)
			}, e.msg.Depth, e.msg.ID)
		} else {
			k.nDropped++
		}
	case evRestart:
		// A restart resets the process to its initial state: the automaton is
		// rebuilt (nothing survives the down interval), Init re-runs as the
		// restart step, and a fresh tick chain starts one interval later. The
		// generation bump retires any tick chain that outlived the down
		// interval (one too short to contain a tick event).
		delete(k.restartDue, restartKey{p: e.p, t: k.now})
		if !k.up(e.p, k.now) {
			return // defensive: schedule says down at its own restart time
		}
		k.tickGen[e.p-1]++
		k.autos[e.p-1] = k.factory(e.p, k.fp.N())
		k.step(e.p, func(ctx *stepCtx) { k.autos[e.p-1].Init(ctx) }, 0, 0)
		next := k.enqueue(k.now + k.opts.TickInterval)
		next.kind, next.p, next.gen = evTick, e.p, k.tickGen[e.p-1]
	case evDeliverBatch:
		// Batches never reach dispatch: RunUntil expands them in place.
		panic("sim: evDeliverBatch escaped RunUntil's batch expansion")
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", e.kind))
	}
}

// step executes one atomic step of process p: query the detector, run the
// handler, then flush sends and outputs.
func (k *Kernel) step(p model.ProcID, h func(*stepCtx), causeDepth int, causeID int64) {
	k.nSteps++
	// Steps never nest (delivery is queued, not reentrant), so one context
	// struct serves the whole run — no per-step allocation. The cost of the
	// reuse: an automaton that illegally retains its Context past the step
	// now aliases the next step's context instead of hitting the done panic,
	// so the "must not retain" contract in model.Context is load-bearing.
	ctx := &k.sctx
	*ctx = stepCtx{
		k:          k,
		self:       p,
		t:          k.now,
		fdv:        k.det.Value(p, k.now),
		causeDepth: causeDepth,
		causeID:    causeID,
	}
	h(ctx)
	ctx.done = true
}

// stepCtx implements model.Context for the duration of one step.
type stepCtx struct {
	k          *Kernel
	self       model.ProcID
	t          model.Time
	fdv        any
	causeDepth int
	causeID    int64
	done       bool
}

var _ model.Context = (*stepCtx)(nil)

func (c *stepCtx) Self() model.ProcID { return c.self }
func (c *stepCtx) N() int             { return c.k.fp.N() }
func (c *stepCtx) Now() model.Time    { return c.t }
func (c *stepCtx) FD() any            { return c.fdv }

func (c *stepCtx) Send(to model.ProcID, payload any) {
	if c.done {
		panic("sim: Send outside of a step")
	}
	c.k.send(c, to, payload)
}

func (c *stepCtx) Broadcast(payload any) {
	if c.done {
		panic("sim: Broadcast outside of a step")
	}
	c.k.broadcast(c, payload)
}

func (c *stepCtx) Output(v any) {
	if c.done {
		panic("sim: Output outside of a step")
	}
	c.k.obs.OnOutput(c.self, c.t, v)
}

func (k *Kernel) send(c *stepCtx, to model.ProcID, payload any) {
	m := Message{
		ID:      0, // stamped by dispatchSend
		From:    c.self,
		To:      to,
		Payload: payload,
		SentAt:  c.t,
		Depth:   c.causeDepth + 1,
		CauseID: c.causeID,
	}
	k.dispatchSend(&m)
}

// bcClass is one delay class of an in-progress broadcast: every recipient
// whose drawn link delay equals delay, in process order.
type bcClass struct {
	delay   model.Time
	members []model.ProcID // pooled; ownership moves to the batch event
}

// maxClassScan bounds the linear class lookup per recipient. Past this many
// distinct delays (a pathological spread — the shipped models draw from a
// few dozen values at most), later recipients fall into singleton classes
// rather than paying an O(classes) scan each; correctness and ordering are
// unaffected because a singleton created after the cutoff always follows
// every member its delay-mates already enqueued (process order is monotone).
const maxClassScan = 64

// grabRecips returns an empty pooled recipient slice.
func (k *Kernel) grabRecips() []model.ProcID {
	if n := len(k.recipPool); n > 0 {
		s := k.recipPool[n-1]
		k.recipPool = k.recipPool[:n-1]
		return s
	}
	return make([]model.ProcID, 0, 8)
}

// broadcast interns the per-broadcast message value: the template (payload,
// sender, depth, cause) is built ONCE and only the per-recipient fields (ID,
// To) are stamped in the loop, instead of reconstructing the full Message for
// each of the n recipients. Delay draws, message IDs, and observer callbacks
// happen in exactly the same order as n individual sends, so traces are
// bit-for-bit unchanged.
//
// Delivery is enqueued BATCHED: recipients are grouped by drawn delay and the
// heap receives one evDeliverBatch entry per distinct arrival instant —
// O(delay classes) entries instead of O(n) — expanded back into individual
// delivery steps at pop time (see RunUntil). Each class carries the sequence
// number its first member would have received, and within one broadcast all
// same-arrival recipients are consecutive in process order, so the global
// dispatch order is provably identical to n individual delivery events: the
// 4-ary slab heap just never sees the fan-out.
func (k *Kernel) broadcast(c *stepCtx, payload any) {
	m := Message{
		From:    c.self,
		Payload: payload,
		SentAt:  c.t,
		Depth:   c.causeDepth + 1,
		CauseID: c.causeID,
	}
	baseID := k.msgSeq + 1
	classes := k.bcClasses[:0]
	for _, q := range k.procs {
		k.msgSeq++
		k.nSent++
		m.To = q
		m.ID = k.msgSeq
		delay, deliver := k.net.Delay(m.From, q, m.SentAt)
		if delay < 0 {
			delay = 0
		}
		k.obs.OnSend(m.SentAt, m)
		if !deliver {
			k.nLost++
			continue
		}
		ci := -1
		if len(classes) <= maxClassScan {
			for i := range classes {
				if classes[i].delay == delay {
					ci = i
					break
				}
			}
		}
		if ci < 0 {
			classes = append(classes, bcClass{delay: delay, members: k.grabRecips()})
			ci = len(classes) - 1
		}
		classes[ci].members = append(classes[ci].members, q)
	}
	template := Message{
		From:    c.self,
		Payload: payload,
		SentAt:  c.t,
		Depth:   c.causeDepth + 1,
		CauseID: c.causeID,
	}
	for i := range classes {
		e := k.enqueue(c.t + classes[i].delay)
		e.kind = evDeliverBatch
		e.msg = template
		e.recips = classes[i].members
		e.baseID = baseID
		e.cursor = 0
		classes[i].members = nil // ownership moved to the event
	}
	k.bcClasses = classes[:0]
}

// dispatchSend stamps the next message ID onto m, draws the link delay, and
// either enqueues the delivery or counts the loss. m is caller-owned scratch:
// the event stores a copy.
func (k *Kernel) dispatchSend(m *Message) {
	k.msgSeq++
	k.nSent++
	m.ID = k.msgSeq
	delay, deliver := k.net.Delay(m.From, m.To, m.SentAt)
	if delay < 0 {
		delay = 0
	}
	k.obs.OnSend(m.SentAt, *m)
	if !deliver {
		k.nLost++
		return
	}
	e := k.enqueue(m.SentAt + delay)
	e.kind, e.msg = evDeliver, *m
}
