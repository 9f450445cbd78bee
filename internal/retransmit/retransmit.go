// Package retransmit restores the paper's eventual-delivery assumption (§2)
// over a lossy wire, at the automaton level: Wrap takes any protocol's
// AutomatonFactory and returns one whose messages travel inside ack'd,
// deduplicated envelopes with seeded exponential resend. Over a network that
// drops each transmission with probability < 1 (internal/sim/adversary.Lossy),
// every enveloped payload sent between correct processes is delivered to the
// inner automaton EXACTLY once: resends continue until acknowledged
// (at-least-once), and receiver-side dedup suppresses the duplicates
// (at-most-once). Self-sends and Repeated payloads skip the envelope (see
// the raw path below). The loss rate thereby becomes a sweepable performance
// parameter — it costs resends and latency — instead of a broken model
// assumption; E11 in internal/bench measures exactly that boundary.
//
// Dedup state is BOUNDED: because each sender incarnation numbers its
// envelopes contiguously from 1 per directed link, the receiver compresses
// every (sender, epoch) stream into a contiguous-seq WATERMARK ("all seqs
// ≤ w settled") plus a sparse set of seqs received above a not-yet-closed
// gap. The sparse set drains into the watermark as gaps close — reordering
// gaps close when the straggler arrives, and gaps whose seqs will never
// arrive (acked to a previous incarnation of a since-restarted receiver)
// close through the Base field every envelope carries (see Data) — so
// per-envelope memory is transient, bounded by the in-flight window rather
// than run length, while the dedup decision stays exactly "was this
// (sender, epoch, link, seq) delivered to this incarnation before".
//
// The wrapper is protocol-agnostic and invisible to the inner automaton: it
// intercepts Send/Broadcast on the step context and the matching Recv calls,
// and passes Init/Tick/Input straight through. Retransmission timing counts
// the automaton's own Tick steps (the paper's local timeout — processes have
// no clock access). Each directed link keeps a round-trip estimator in ticks
// (RFC 6298: SRTT and RTTVAR, learned RTO = SRTT + 4·RTTVAR, and Karn's rule:
// an ack of a resent envelope is ambiguous and gives no sample). Resend
// attempt k waits max(learned RTO, min(RTO·2^k, MaxRTO)) ticks: the learned
// RTO is a FLOOR under the fixed exponential schedule, not a new base for it,
// so a link whose round trip exceeds RTO stops paying for resends that race
// their own ack, while a lost envelope still backs off on the fixed schedule.
// Each wait is offset by seeded jitter in [0, RTO) so two senders that lost
// the same burst do not resend in lockstep forever. The learned RTO stays
// within [RTO, MaxRTO], and a sample of 0 ticks (an ack inside the tick that
// sent the data) counts like any other.
//
// Until a link has its first valid sample, an ambiguous ack keeps the
// backed-off timeout it was acked under as the link's floor (Karn's timer
// backoff, RFC 6298 (5.5)): a link whose round trip exceeds RTO would
// otherwise resend nearly every envelope, and so almost never produce the
// unresent ack a sample needs. Once a link is measured, a resend is probable
// loss and moves nothing, so loss recovery keeps the fixed schedule. A
// restarted process (see below) starts with every link unmeasured.
//
// Raw path: two kinds of payload travel without an envelope, ack or resend
// entry, because nothing can lose them or something else repeats them. A
// process's message to itself is local memory: every network model keeps
// self-links lossless, and the live runtime delivers self-sends from a
// loop-local queue. A payload that implements Repeated is one its sender
// sends again on its own (etob.PromoteMsg: the leader's keepalive repeats
// its newest promote_i), so a lost copy is replaced by a later one, not by
// a resend. Raw payloads are handed to the inner automaton as they arrive —
// a duplicated copy arrives twice — so a Repeated payload must be safe to
// receive more than once and out of order. Every other payload keeps
// exactly-once delivery.
//
// Churn interplay: a process restarted by the kernel (sim.Options.Faults)
// re-runs Init with fresh state, which gives the wrapper a new EPOCH (derived
// from the restart time). Envelope identity is (sender, epoch, link, seq) —
// sequence numbers count contiguously per directed link — so a restarted
// sender's fresh sequence numbers are never confused with its previous
// incarnation's, and in-flight envelopes from the old incarnation deliver at
// most once to whichever incarnation receives them first. A restarted
// RECEIVER starts a fresh dedup ledger: envelopes the sender has seen acked
// (by any incarnation) never reappear — the Base carried in every envelope
// lets the new ledger compact past them immediately — while envelopes still
// unacked at the restart keep being resent until the new incarnation
// delivers and acks them.
//
// Resend queue: unacked envelopes wait in a heap keyed by (due tick, send
// ordinal), so a tick touches only the envelopes due on it, not every
// pending one. An ack marks its envelope and drops its payload at once; the
// key stays queued until its due tick pops it, and only then is the slot
// released, so settled state lingers at most one backoff interval. Resends
// within one tick go out in send order, which fixes the order of the jitter
// draws.
//
// Determinism: all jitter comes from a PRNG seeded by (Options.Seed, process,
// epoch), and resend decisions depend only on tick counts (the estimator is
// integer fixed point) — a wrapped run is bit-for-bit reproducible like any
// other kernel run.
package retransmit

import (
	"errors"
	"math/rand"

	"repro/internal/model"
	"repro/internal/slabheap"
	"repro/internal/wire"
)

func init() {
	wire.Register(Data{})
	wire.Register(Ack{})
}

// Data is the envelope carrying an inner-protocol payload. Identity is
// (sender, Epoch, Seq) on the receiving link — Seq counts the sender
// incarnation's envelopes to THIS recipient contiguously from 1, which is
// what the receiver's watermark compresses. Receivers ack every copy and
// deliver the payload to the inner automaton once.
//
// Base is the sender's lowest not-yet-acked Seq on this link at transmission
// time: every seq below it has been acknowledged and will NEVER be resent,
// so the receiver can compact its watermark up to Base-1 unconditionally.
// This is what keeps dedup state bounded across RECEIVER restarts — a fresh
// incarnation's first envelope from a surviving sender arrives with a seq
// far above 1, and without Base that bottom gap could never close (the
// missing seqs were acked to the previous incarnation), pinning one sparse
// entry per subsequent envelope forever.
type Data struct {
	Epoch   int64
	Seq     int64
	Base    int64
	Payload any
}

var errNestedData = errors.New("retransmit: envelope inside an envelope")

// WireTag implements wire.Message.
func (Data) WireTag() wire.Tag { return wire.TagData }

// AppendWire implements wire.Message: Epoch, Seq and Base as varints, then
// the tagged inner payload. The layer never nests envelopes, and a receiver
// rejects a nested one, so encoding one is an error.
func (d Data) AppendWire(b []byte) ([]byte, error) {
	if _, nested := d.Payload.(Data); nested {
		return b, errNestedData
	}
	b = wire.AppendInt(b, d.Epoch)
	b = wire.AppendInt(b, d.Seq)
	b = wire.AppendInt(b, d.Base)
	return wire.AppendPayload(b, d.Payload)
}

// ReadWire implements wire.Message.
func (Data) ReadWire(r *wire.Reader) any {
	return Data{Epoch: r.Int(), Seq: r.Int(), Base: r.Int(), Payload: r.Payload()}
}

// Ack acknowledges receipt of the sender's (Epoch, Seq) envelope. Acks are
// not themselves ack'd: a lost ack just means the data is resent and ack'd
// again.
type Ack struct {
	Epoch int64
	Seq   int64
}

// WireTag implements wire.Message.
func (Ack) WireTag() wire.Tag { return wire.TagAck }

// AppendWire implements wire.Message: Epoch and Seq as varints.
func (a Ack) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendInt(wire.AppendInt(b, a.Epoch), a.Seq), nil
}

// ReadWire implements wire.Message.
func (Ack) ReadWire(r *wire.Reader) any { return Ack{Epoch: r.Int(), Seq: r.Int()} }

// Repeated marks a payload whose sender sends its newest copy again on its
// own, with no need for an ack: the layer sends it raw (see the package
// doc). Only a protocol that tolerates the loss, duplication and reordering
// of any single copy may implement it.
type Repeated interface {
	RepeatedBySender()
}

// Options tune the resend schedule.
type Options struct {
	// RTO is the initial resend timeout in ticks of the wrapped automaton
	// (default 3), and the floor of every link's learned timeout. Attempt k
	// resends after max(learned RTO, min(RTO·2^k, MaxRTO)) ticks plus jitter
	// in [0, RTO); a link with no round-trip sample yet uses RTO.
	RTO int
	// MaxRTO caps the exponential backoff (default 48 ticks).
	MaxRTO int
	// Seed drives the per-process jitter streams.
	Seed int64
	// GiveUpTicks, when positive, bounds sender-side persistence: an envelope
	// is ABANDONED (dropped from the resend queue, counted by Abandoned)
	// instead of resent once (a) its backoff has reached the MaxRTO cap and
	// (b) the destination link has been silent — no Data and no Ack from that
	// process, in any epoch — for more than GiveUpTicks ticks. Without a
	// bound, a sender's pending set grows forever against a permanently
	// crashed receiver (one entry per subsequent broadcast), which for a
	// long-lived deployable node is a leak.
	//
	// Set GiveUpTicks well above the churn scale of the environment (restart
	// gaps, partition spans): any process that returns within the window
	// keeps the at-least-once guarantee, because its first Data or Ack —
	// stale epochs count — refreshes the link and every still-pending
	// envelope keeps being resent. Zero (the default) disables abandonment
	// entirely, preserving the paper's unconditional eventual delivery — the
	// simulator's experiments and golden tables run in this mode; the
	// deployable service plane (internal/node) enables it.
	GiveUpTicks int
}

func (o Options) withDefaults() Options {
	if o.RTO <= 0 {
		o.RTO = 3
	}
	if o.MaxRTO <= 0 {
		// Unset: default cap, raised to RTO for large initial timeouts.
		o.MaxRTO = 48
		if o.MaxRTO < o.RTO {
			o.MaxRTO = o.RTO
		}
	} else if o.MaxRTO < o.RTO {
		// An EXPLICIT cap below the initial timeout is a configuration the
		// caller chose — honor the cap by clamping the initial timeout down
		// to it.
		o.RTO = o.MaxRTO
	}
	return o
}

// Wrap returns a factory producing inner's automata inside the retransmission
// layer. All processes of a run must be wrapped together (the wrapper speaks
// Data/Ack on the wire, besides the raw self-sends and Repeated payloads);
// payloads that are not envelopes are handed to the inner automaton
// unchanged, so wrapped and unwrapped processes can coexist without
// retransmission protection between them.
func Wrap(inner model.AutomatonFactory, opts Options) model.AutomatonFactory {
	opts = opts.withDefaults()
	return func(p model.ProcID, n int) model.Automaton {
		return &Automaton{self: p, n: n, opts: opts, inner: inner(p, n)}
	}
}

// srcKey identifies one sender incarnation's envelope stream.
type srcKey struct {
	from  model.ProcID
	epoch int64
}

// dedup is the receiver-side duplicate-suppression state for one (sender,
// epoch) stream. Senders allocate seqs contiguously from 1, so most of the
// seen set is a prefix: watermark w means every seq ≤ w has been delivered,
// and only the seqs received ABOVE a gap sit in the sparse `above` set. A
// delivery that closes the gap advances the watermark through `above`,
// deleting entries as they join the prefix — so the state is bounded by the
// stream's in-flight reordering window, not by run length. (An earlier
// revision kept one map entry per envelope forever, growing without bound
// over long lossy runs; the long-run test pins the new bound.)
type dedup struct {
	watermark int64
	above     map[int64]struct{}
}

// compactTo advances the watermark to at least w (seqs ≤ w are settled and
// will never arrive again — the sender's Base guarantee), dropping any
// sparse entries the new prefix swallows and draining the set as usual.
func (d *dedup) compactTo(w int64) {
	if w <= d.watermark {
		return
	}
	d.watermark = w
	for s := range d.above {
		if s <= w {
			delete(d.above, s)
		}
	}
	d.drain()
}

// drain advances the watermark through contiguous sparse entries, deleting
// them as they join the prefix — the single gap-closing step shared by the
// delivery and compaction paths.
func (d *dedup) drain() {
	for {
		if _, ok := d.above[d.watermark+1]; !ok {
			return
		}
		d.watermark++
		delete(d.above, d.watermark)
	}
}

// seen reports whether seq was already delivered, recording it if not.
func (d *dedup) seen(seq int64) bool {
	if seq <= d.watermark {
		return true
	}
	if _, dup := d.above[seq]; dup {
		return true
	}
	if seq == d.watermark+1 {
		d.watermark = seq
		d.drain()
		return false
	}
	if d.above == nil {
		d.above = make(map[int64]struct{})
	}
	d.above[seq] = struct{}{}
	return false
}

// sparse returns how many seqs are held above the watermark — the part of
// the dedup state that is not compressed into the prefix.
func (d *dedup) sparse() int { return len(d.above) }

// pendKey addresses one unacked envelope: sequence numbers are allocated
// contiguously PER DIRECTED LINK (each recipient sees its own 1, 2, 3, ...
// stream from a sender incarnation), which is what lets the receiver-side
// watermark compress the seen set — a global per-sender counter would leave
// every receiver with permanent gaps (it only receives every n-th seq of a
// broadcast) and nothing to prune.
type pendKey struct {
	to  model.ProcID
	seq int64
}

// pending is one unacked envelope awaiting resend. Envelopes live in the
// resend heap's slab addressed by slot index; the map exists only so an
// arriving ack can find its envelope. The due tick is carried by the heap
// key, not stored here.
type pending struct {
	to       model.ProcID
	seq      int64
	ord      int64 // global send ordinal; fixes intra-tick resend order
	sentAt   int64 // tick of the first transmission (RTT sample base)
	payload  any
	attempts int
	acked    bool // set by the ack; slot released when its key pops
}

// rttEst is one link's RFC 6298 round-trip estimator in automaton ticks, in
// Jacobson's integer fixed point (srtt8 = SRTT·8, rttvar4 = RTTVAR·4): floats
// could round differently across architectures and move seeded runs.
type rttEst struct {
	srtt8, rttvar4 int64
	sampled        bool
	rto            int64 // SRTT + 4·RTTVAR clamped to [Options.RTO, MaxRTO]
}

// sample folds one round-trip measurement r ≥ 0 into the estimate and
// recomputes the link's timeout within [lo, hi], replacing any timeout kept
// by backedOff.
func (e *rttEst) sample(r, lo, hi int64) {
	if !e.sampled {
		e.srtt8, e.rttvar4, e.sampled = r<<3, r<<1, true
	} else {
		delta := r - e.srtt8>>3
		e.srtt8 += delta // SRTT += (r - SRTT)/8
		if delta < 0 {
			delta = -delta
		}
		e.rttvar4 += delta - e.rttvar4>>2 // RTTVAR += (|r - SRTT| - RTTVAR)/4
	}
	e.rto = min(max(e.srtt8>>3+e.rttvar4, lo), hi)
}

// backedOff records an ambiguous ack (Karn's rule: no sample) of an envelope
// whose backed-off timeout had reached d ticks: an unmeasured link keeps d
// as its floor until its first sample.
func (e *rttEst) backedOff(d int64) {
	if !e.sampled {
		e.rto = max(e.rto, d)
	}
}

// Automaton is the retransmission wrapper around one inner automaton. It
// hands the inner automaton the same wrapper context on every step, reset
// for the step (see wrap), so the inner automaton must not keep its Context
// past the step.
type Automaton struct {
	self  model.ProcID
	n     int
	opts  Options
	inner model.Automaton

	epoch   int64
	seqTo   []int64  // last seq sent per destination link (index to-1)
	baseTo  []int64  // lowest possibly-unacked seq per link (advanced lazily)
	rtt     []rttEst // per-link round-trip estimator
	ticks   int64
	rng     *rand.Rand
	pending map[pendKey]int32      // ack lookup: (destination, link seq) → slab slot
	heap    slabheap.Heap[pending] // unacked envelopes keyed by (next due tick, ord)
	due     []int32                // per-tick scratch: slots due for resend
	sent    int64                  // send ordinal counter (see pending.ord)
	seen    map[srcKey]*dedup      // per (sender, epoch) watermark + sparse set
	resends int64
	dupes   int64 // duplicate envelopes suppressed by receiver-side dedup

	// Give-up bookkeeping (Options.GiveUpTicks).
	lastHeard []int64 // index q-1: tick of last message from q, any epoch
	cappedAt  int     // attempt count at which backoff reaches the MaxRTO cap
	abandoned int64

	wc wrapCtx // the inner automaton's context, reset per step (see wrap)
}

var _ model.Automaton = (*Automaton)(nil)

// Inner returns the wrapped automaton, for post-run inspection.
func (a *Automaton) Inner() model.Automaton { return a.inner }

// Resends returns how many envelope retransmissions this process performed.
func (a *Automaton) Resends() int64 { return a.resends }

// Duplicates returns how many duplicate envelopes receiver-side dedup
// suppressed (cumulative across incarnations). Under a duplicating or
// resend-heavy network this is the at-most-once half of the exactly-once
// guarantee made visible: every copy beyond the first lands here instead of
// in the inner automaton.
func (a *Automaton) Duplicates() int64 { return a.dupes }

// PendingEnvelopes returns how many envelopes are still awaiting an ack.
func (a *Automaton) PendingEnvelopes() int { return len(a.pending) }

// LearnedRTO returns the largest per-link learned timeout of the current
// incarnation in ticks: Options.RTO until a link has a round-trip sample,
// never above MaxRTO.
func (a *Automaton) LearnedRTO() int {
	m := int64(a.opts.RTO)
	for i := range a.rtt {
		m = max(m, a.rtt[i].rto)
	}
	return int(m)
}

// Abandoned returns how many envelopes this process gave up resending under
// Options.GiveUpTicks (cumulative across incarnations, like Resends).
func (a *Automaton) Abandoned() int64 { return a.abandoned }

// DedupSparse returns how many received seqs are held OUTSIDE the contiguous
// per-(sender, epoch) watermark prefixes — the only part of the dedup state
// that occupies per-envelope memory. It is transient reordering state: once
// every gap closes it returns to 0 no matter how many envelopes the run
// carried, which the long-lossy-run test asserts.
func (a *Automaton) DedupSparse() int {
	total := 0
	for _, d := range a.seen {
		total += d.sparse()
	}
	return total
}

// DedupStreams returns how many (sender, epoch) streams the receiver tracks —
// bounded by n plus the restarts observed, never by traffic volume.
func (a *Automaton) DedupStreams() int { return len(a.seen) }

// Init implements model.Automaton. The step time identifies the incarnation:
// first boot runs at time 0, kernel restarts run at the restart instant, so
// epochs are distinct per incarnation and deterministic.
func (a *Automaton) Init(ctx model.Context) {
	a.epoch = int64(ctx.Now())
	a.seqTo = make([]int64, a.n)
	a.baseTo = make([]int64, a.n)
	for i := range a.baseTo {
		a.baseTo[i] = 1
	}
	a.rtt = make([]rttEst, a.n)
	a.ticks = 0
	a.rng = rand.New(rand.NewSource(a.opts.Seed*1_000_003 + int64(a.self)*7919 + a.epoch))
	a.pending = make(map[pendKey]int32)
	a.heap.Reset()
	a.sent = 0
	a.seen = make(map[srcKey]*dedup)
	a.lastHeard = make([]int64, a.n)
	a.cappedAt = 0
	for d := int64(a.opts.RTO); d < int64(a.opts.MaxRTO); d *= 2 {
		a.cappedAt++
	}
	a.inner.Init(a.wrap(ctx))
}

// Input implements model.Automaton.
func (a *Automaton) Input(ctx model.Context, in any) {
	a.inner.Input(a.wrap(ctx), in)
}

// Recv implements model.Automaton.
func (a *Automaton) Recv(ctx model.Context, from model.ProcID, payload any) {
	switch m := payload.(type) {
	case Data:
		a.heard(from)
		// Always ack — the previous ack may have been the lost message.
		ctx.Send(from, Ack{Epoch: m.Epoch, Seq: m.Seq})
		key := srcKey{from: from, epoch: m.Epoch}
		d := a.seen[key]
		if d == nil {
			d = &dedup{}
			a.seen[key] = d
		}
		d.compactTo(m.Base - 1)
		if d.seen(m.Seq) {
			a.dupes++
			return
		}
		a.inner.Recv(a.wrap(ctx), from, m.Payload)
	case Ack:
		a.heard(from)
		if m.Epoch != a.epoch {
			break
		}
		key := pendKey{to: from, seq: m.Seq}
		if slot, ok := a.pending[key]; ok {
			// The slot stays queued until its due tick pops it; its
			// payload is released now.
			delete(a.pending, key)
			pd := a.heap.Slot(slot)
			pd.acked, pd.payload = true, nil
			if pd.attempts == 0 {
				a.rtt[from-1].sample(a.ticks-pd.sentAt, int64(a.opts.RTO), int64(a.opts.MaxRTO))
			} else { // Karn's rule: the ack may answer any of the copies
				a.rtt[from-1].backedOff(a.expBackoff(pd.attempts))
			}
		}
	default:
		// A raw payload: a self-send, a Repeated payload, or one from a
		// peer outside the retransmission layer.
		a.heard(from)
		a.inner.Recv(a.wrap(ctx), from, payload)
	}
}

// Tick implements model.Automaton: resend overdue envelopes, then tick the
// inner automaton.
func (a *Automaton) Tick(ctx model.Context) {
	a.ticks++
	if a.heap.Len() > 0 && a.heap.Top().At <= a.ticks {
		a.resendDue(ctx)
	}
	a.inner.Tick(a.wrap(ctx))
}

// IdleTicks implements model.Waker: the coming ticks before the earlier of
// the next resend and the inner automaton's next due tick only advance the
// tick count. Acked envelopes at the top of the resend heap are released
// first, so a settled envelope does not wake the process at its old due
// tick; the resend order of the rest is unchanged.
func (a *Automaton) IdleTicks(fd any) int64 {
	k := model.IdleTicks(a.inner, fd)
	h := &a.heap
	for h.Len() > 0 && h.Slot(h.Top().Slot).acked {
		h.Release(h.Pop().Slot)
	}
	if h.Len() > 0 {
		if due := max(0, h.Top().At-a.ticks-1); k < 0 || due < k {
			k = due
		}
	}
	return k
}

// resendDue pops every envelope whose due tick has arrived, discards settled
// ones, and resends the rest in send (ord) order — the order the old linear
// scan produced, which pins the seeded jitter stream and hence the golden
// tables. Resent envelopes re-queue at their next backoff; abandoned ones
// (see Options.GiveUpTicks) leave the pending set entirely, which also lets
// linkBase advance past them so receivers compact the corresponding seqs.
func (a *Automaton) resendDue(ctx model.Context) {
	h := &a.heap
	a.due = a.due[:0]
	for h.Len() > 0 && h.Top().At <= a.ticks {
		k := h.Pop()
		if h.Slot(k.Slot).acked {
			h.Release(k.Slot)
			continue
		}
		a.due = append(a.due, k.Slot)
	}
	// Insertion sort by ord: popped order is (due, ord), resend order must be
	// ord alone. The due set is small (one backoff cohort), so this beats a
	// sort.Slice allocation per tick.
	for i := 1; i < len(a.due); i++ {
		s := a.due[i]
		o := h.Slot(s).ord
		j := i - 1
		for j >= 0 && h.Slot(a.due[j]).ord > o {
			a.due[j+1] = a.due[j]
			j--
		}
		a.due[j+1] = s
	}
	for _, s := range a.due {
		pd := h.Slot(s)
		if a.opts.GiveUpTicks > 0 && pd.attempts >= a.cappedAt &&
			a.ticks-a.lastHeard[pd.to-1] > int64(a.opts.GiveUpTicks) {
			a.abandoned++
			delete(a.pending, pendKey{to: pd.to, seq: pd.seq})
			h.Release(s)
			continue
		}
		a.resends++
		ctx.Send(pd.to, Data{Epoch: a.epoch, Seq: pd.seq, Base: a.linkBase(pd.to), Payload: pd.payload})
		pd.attempts++
		h.Push(a.ticks+a.backoff(pd.to, pd.attempts), pd.ord, s)
	}
}

// heard records link liveness for the give-up bound: any message from q —
// Data or Ack of any epoch, or a raw payload — proves the process is back.
func (a *Automaton) heard(from model.ProcID) {
	if from >= 1 && int(from) <= a.n {
		a.lastHeard[from-1] = a.ticks
	}
}

// backoff returns the tick delay before resend attempt k (0 for the first
// transmission's timeout) on the link to `to`: the exponential
// min(RTO·2^k, MaxRTO), floored at the link's learned RTO, plus seeded jitter
// in [0, RTO).
func (a *Automaton) backoff(to model.ProcID, attempts int) int64 {
	d := max(a.expBackoff(attempts), a.rtt[to-1].rto)
	return d + a.rng.Int63n(int64(a.opts.RTO))
}

// expBackoff returns the fixed exponential schedule's timeout for attempt k:
// min(RTO·2^k, MaxRTO).
func (a *Automaton) expBackoff(attempts int) int64 {
	d := int64(a.opts.RTO)
	for i := 0; i < attempts && d < int64(a.opts.MaxRTO); i++ {
		d *= 2
	}
	return min(d, int64(a.opts.MaxRTO))
}

// linkBase returns the lowest seq on the link to `to` that may still be
// unacked, advancing the cached floor past acked seqs lazily — each seq is
// crossed at most once over its lifetime, so the scan is amortized O(1) per
// envelope.
func (a *Automaton) linkBase(to model.ProcID) int64 {
	b := a.baseTo[to-1]
	for b <= a.seqTo[to-1] {
		if _, unacked := a.pending[pendKey{to: to, seq: b}]; unacked {
			break
		}
		b++
	}
	a.baseTo[to-1] = b
	return b
}

// sendData sends one inner-protocol payload: raw to itself or when the
// payload is Repeated (see the package doc), otherwise wrapped and
// registered for resend. The sequence number is drawn from the destination
// link's own contiguous counter (see pendKey).
func (a *Automaton) sendData(ctx model.Context, to model.ProcID, payload any) {
	if to == a.self || isRepeated(payload) {
		ctx.Send(to, payload)
		return
	}
	a.seqTo[to-1]++
	a.sent++
	slot := a.heap.Alloc()
	pd := a.heap.Slot(slot)
	*pd = pending{to: to, seq: a.seqTo[to-1], ord: a.sent, sentAt: a.ticks, payload: payload}
	due := a.ticks + a.backoff(to, 0)
	a.pending[pendKey{to: to, seq: pd.seq}] = slot
	a.heap.Push(due, pd.ord, slot)
	ctx.Send(to, Data{Epoch: a.epoch, Seq: pd.seq, Base: a.linkBase(to), Payload: payload})
}

// isRepeated reports whether payload travels raw to every destination.
func isRepeated(payload any) bool {
	_, ok := payload.(Repeated)
	return ok
}

// wrap resets the inner automaton's context for a step taken under ctx and
// returns it. Steps never nest (kernels queue self-sends), so one serves
// them all.
func (a *Automaton) wrap(ctx model.Context) *wrapCtx {
	a.wc = wrapCtx{ctx: ctx, a: a}
	return &a.wc
}

// wrapCtx intercepts the inner automaton's sends; everything else passes
// through to the kernel's context.
type wrapCtx struct {
	ctx model.Context
	a   *Automaton
}

var _ model.Context = (*wrapCtx)(nil)

func (c *wrapCtx) Self() model.ProcID { return c.ctx.Self() }
func (c *wrapCtx) N() int             { return c.ctx.N() }
func (c *wrapCtx) Now() model.Time    { return c.ctx.Now() }
func (c *wrapCtx) FD() any            { return c.ctx.FD() }
func (c *wrapCtx) Output(v any)       { c.ctx.Output(v) }

func (c *wrapCtx) Send(to model.ProcID, payload any) {
	c.a.sendData(c.ctx, to, payload)
}

func (c *wrapCtx) Broadcast(payload any) {
	if isRepeated(payload) {
		// Raw to all, self included: one broadcast, which the kernel can
		// schedule as one event per delay instead of n sends.
		c.ctx.Broadcast(payload)
		return
	}
	// The paper's broadcast is n sends (including self); each peer copy of
	// an enveloped payload gets its own envelope, so acks and resends are
	// per-recipient.
	for q := model.ProcID(1); int(q) <= c.a.n; q++ {
		c.a.sendData(c.ctx, q, payload)
	}
}
