// Package etob implements the paper's ETOB protocol (Algorithm 5, §5):
// eventual total order broadcast directly from Ω, in any environment.
//
// Protocol sketch (per process p_i):
//
//	On broadcastETOB(m, C(m)):
//	    UpdateCG(m, C(m)); send update(CG_i) to all
//	On reception of update(CG_j):
//	    UnionCG(CG_j); UpdatePromote()
//	On reception of promote(promote_j) from p_j:
//	    if Ω_i = p_j then d_i := promote_j
//	On local timeout:
//	    if Ω_i = p_i then send promote(promote_i) to all
//
// This package's leader sends that promote when it has news, not on every
// timeout: in the step in which an update grows promote_i (if it was leader
// at its previous timeout already), on the first timeout at which Ω_i = p_i
// after one at which it was not, and when promoteKeepalive timeouts have
// passed since its last promote (see Tick). A write is thus ordered in the
// step the leader learns it, two communication steps after its broadcast,
// with no wait for the leader's next timeout. Lemma 3 needs only that the
// leader's latest promote_i eventually reaches every correct process after
// τ, and that a receiver then trusts the leader. Over reliable links (the
// paper's model), the send on each change delivers each promote_i; the
// keepalive covers a process whose Ω turns to the leader after the last
// change, which drops promotes it received earlier. Over lossy links, the
// keepalive repeats the latest promote_i forever, so each correct process
// receives it with probability 1. That is why internal/retransmit sends
// promotes raw (see PromoteMsg): it resends only updates, which nothing else
// repeats.
//
// The three headline properties (Lemma 3 and §5 discussion), all exercised by
// the experiments in internal/bench:
//
//  1. A broadcast is stably delivered after two communication steps when the
//     leader is stable (update to the leader, promote from the leader) —
//     strong TOB needs three in the worst case [Lamport, DC 2006].
//  2. If Ω outputs the same leader at every process from the very beginning,
//     the protocol implements (strong) total order broadcast.
//  3. TOB-Causal-Order holds at all times, even while Ω outputs different
//     leaders at different processes.
//
// Dissemination is the paper's: every broadcastETOB sends the whole
// update(CG_i) to all n processes. Lemma 3 needs only eventual receipt, and
// the retransmission layer (internal/retransmit) restores that over lossy
// links.
package etob

import (
	"fmt"
	"sort"

	"repro/internal/causal"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/wire"
)

func init() {
	wire.Register(UpdateMsg{})
	wire.Register(PromoteMsg{})
}

// UpdateMsg is the update(CG_i) message: the sender's causality graph. CG is
// an O(1) snapshot (causal.Graph.Clone) that shares storage with the
// sender's live graph: a read-only view, which receivers merge but never
// mutate. In-process receivers absorb it incrementally (see unionCG).
type UpdateMsg struct {
	CG *causal.Graph
}

// WireTag implements wire.Message.
func (UpdateMsg) WireTag() wire.Tag { return wire.TagUpdate }

// AppendWire implements wire.Message: the graph's wire form, written
// straight into the frame.
func (m UpdateMsg) AppendWire(b []byte) ([]byte, error) { return m.CG.AppendWire(b) }

// ReadWire implements wire.Message.
func (UpdateMsg) ReadWire(r *wire.Reader) any { return UpdateMsg{CG: causal.ReadGraph(r)} }

// PromoteMsg is the promote(promote_i) message: the leader's current
// promotion sequence. Links in the model are reliable but not FIFO, and
// adopting a stale promote after a newer one would shrink d_i and break
// (E)TOB-Stability. Receivers therefore order one sender's promotes by
// (Counter, len(Seq)) and ignore any not above the last one they adopted
// from it — the standard fix, equivalent to the FIFO adoption the paper's
// Lemma 3 proof implicitly uses (it matches d_i(t1), d_i(t2) with
// promote_j(t3), promote_j(t4), t3 ≤ t4).
//
// Counter is the sender's leader-tick count: it advances on every tick at
// which the sender is leader, sent or not (see Tick), so consecutive
// promotes can skip values, and the promotes a leader sends between two
// ticks, one per growth of promote_i (see Recv), share one value. Length
// orders those: within one incarnation promote_i is append-only, so of two
// promotes with one counter the longer one was sent later and extends the
// shorter.
//
// Seq is a clipped view of the sender's append-only promote_i, not a copy,
// and a receiver adopts it as d_i as is: it is read-only, shared with the
// sender and with every other receiver.
//
// A promote is repeated by its sender (retransmit.Repeated): Algorithm 5
// needs only the leader's latest promote_i to reach everyone after τ, it
// carries the whole sequence, and the leader sends it again within
// promoteKeepalive ticks (see Tick). A retransmission layer therefore sends
// promotes raw, with no envelope, ack or resend: a lost copy is replaced by
// the next promote. A duplicate, or a late copy of an older promote, is
// dropped by the (Counter, len(Seq)) guard above.
type PromoteMsg struct {
	Seq     []string
	Counter int64
}

// RepeatedBySender marks PromoteMsg as retransmit.Repeated.
func (PromoteMsg) RepeatedBySender() {}

// WireTag implements wire.Message.
func (PromoteMsg) WireTag() wire.Tag { return wire.TagPromote }

// AppendWire implements wire.Message: Counter as a varint, then the count
// of Seq and its IDs as strings.
func (m PromoteMsg) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendUint(wire.AppendInt(b, m.Counter), uint64(len(m.Seq)))
	for _, id := range m.Seq {
		b = wire.AppendString(b, id)
	}
	return b, nil
}

// ReadWire implements wire.Message. Each ID gets storage of its own rather
// than being a substring of one shared buffer: a receiver keeps the IDs it
// applies, and a substring would keep its whole promote alive.
func (PromoteMsg) ReadWire(r *wire.Reader) any {
	m := PromoteMsg{Counter: r.Int()}
	if k := r.Count(1); k > 0 {
		m.Seq = make([]string, k)
		for i := range m.Seq {
			m.Seq[i] = r.Str()
		}
	}
	return m
}

// Automaton is the per-process automaton of Algorithm 5.
type Automaton struct {
	self model.ProcID
	n    int

	d       []string      // d_i: output sequence (read-only: may be a leader's view)
	promote []string      // promote_i, append-only between UpdatePromote fallbacks
	cg      *causal.Graph // CG_i

	// front is the causal frontier of CG_i's first synced nodes: those no
	// known message depends on. A node joins when it is added and leaves
	// for good when it gains a successor (coverEdge), so the default C(m)
	// costs the frontier's size, not CG_i's.
	front  map[string]struct{}
	synced int
	deps   []string // C(m) scratch for the broadcast in progress (see resolveDeps)

	marks    map[model.ProcID]causal.Mark // per sender: how much of its CG_j is merged
	promoted causal.Mark                  // CG_i's mark when promote_i was last extended

	promoteCtr int64                        // counter stamped on our promote messages
	adopted    map[model.ProcID]promoteRank // highest promote adopted per sender

	// Promote quiescence (see Tick): whether Ω_i = p_i at the previous
	// tick and at every step since that grew promote_i, leader ticks since
	// the last promote sent, and how many promotes this process has
	// broadcast.
	wasLeader    bool
	sinceSent    int
	promotesSent int64

	// onFlush, when set, is called with the op ID each update(CG_i)
	// broadcast carries. Observability tap — see SetFlushHook.
	onFlush func(id string)
}

var _ model.Automaton = (*Automaton)(nil)

// New returns the Algorithm 5 automaton for process p of n.
func New(p model.ProcID, n int) *Automaton {
	cg := causal.New()
	return &Automaton{
		self:     p,
		n:        n,
		cg:       cg,
		front:    make(map[string]struct{}),
		marks:    make(map[model.ProcID]causal.Mark),
		promoted: cg.Mark(),
		adopted:  make(map[model.ProcID]promoteRank),
	}
}

// Factory adapts New to model.AutomatonFactory.
func Factory() model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return New(p, n) }
}

// Init implements model.Automaton.
func (a *Automaton) Init(model.Context) {}

// Input implements model.Automaton: a model.BroadcastInput is
// broadcastETOB(m, C(m)). A nil Deps asks the protocol to use the causal
// frontier of everything this process has seen (so that both "p sent m1 then
// m2" and "p received m1 then sent m2" of the →_R relation are captured).
// Explicit Deps are taken as given, except that those CG_i does not hold are
// dropped: under →_R, C(m) is what p sent or received, and an unknown ID
// would enter CG_i as a placeholder whose own dependencies could only arrive
// later, as edges into a promote_i that has already ordered it.
func (a *Automaton) Input(ctx model.Context, in any) {
	b, ok := in.(model.BroadcastInput)
	if !ok {
		return
	}
	a.BroadcastETOB(ctx, b.ID, b.Deps)
}

// BroadcastETOB invokes broadcastETOB(m, C(m)) programmatically (used by the
// ETOB→EC transformation, which drives ETOB as a black box).
func (a *Automaton) BroadcastETOB(ctx model.Context, id string, deps []string) {
	if a.cg.Has(id) {
		return // duplicate broadcast of the same ID: ignore
	}
	a.updateCG(id, a.resolveDeps(deps))
	ctx.Broadcast(UpdateMsg{CG: a.cg.Clone()})
	if a.onFlush != nil {
		a.onFlush(id)
	}
}

// SetFlushHook installs an observability tap called, from within the step
// that broadcasts, with the op ID the update(CG_i) carries. The node's
// op-lifecycle tracer stamps its broadcast stage here.
func (a *Automaton) SetFlushHook(fn func(id string)) { a.onFlush = fn }

// Undelivered returns how many ops are known to CG_i but not yet in the
// output sequence d_i — the unresolved-dependency stall depth the eventual
// guarantees are draining.
func (a *Automaton) Undelivered() int {
	n := a.cg.Len() - len(a.d)
	if n < 0 {
		return 0
	}
	return n
}

// Recv implements model.Automaton.
func (a *Automaton) Recv(ctx model.Context, from model.ProcID, payload any) {
	switch m := payload.(type) {
	case UpdateMsg:
		a.unionCG(from, m.CG)
		if a.updatePromote() {
			a.promoteOnChange(ctx)
		}
	case PromoteMsg:
		a.adopt(ctx, from, m)
	}
}

// promoteRank orders one sender's promotes: by counter, then by length (see
// PromoteMsg).
type promoteRank struct {
	ctr int64
	n   int
}

func (r promoteRank) below(o promoteRank) bool {
	return r.ctr < o.ctr || r.ctr == o.ctr && r.n < o.n
}

// adopt is the reception of promote(promote_j) from p_j: if Ω_i = p_j and
// the promote ranks above the last one adopted from p_j, d_i := promote_j.
// It reports whether the promote was adopted, d_i changed or not.
func (a *Automaton) adopt(ctx model.Context, from model.ProcID, m PromoteMsg) bool {
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok || leader != from {
		return false
	}
	r := promoteRank{m.Counter, len(m.Seq)}
	if !a.adopted[from].below(r) {
		return false // stale or duplicate promote (links are not FIFO)
	}
	a.adopted[from] = r
	// Adopted promotes are views of the leader's append-only promote_i, so
	// in-process this compare is O(1).
	if keep := model.CommonPrefix(a.d, m.Seq); keep < len(a.d) || keep < len(m.Seq) {
		a.d = m.Seq
		ctx.Output(model.SeqSnapshot{Seq: a.d})
	}
	return true
}

// promoteOnChange sends promote_i in the step an update grew it, if Ω_i =
// p_i now and at the previous tick. Otherwise the next tick at which Ω_i =
// p_i sends it as one gaining leadership: wasLeader is already false at a
// process that gained leadership since its previous tick, and a process
// that is not leader now clears it here. No growth waits for a keepalive.
func (a *Automaton) promoteOnChange(ctx model.Context) {
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok || leader != a.self {
		a.wasLeader = false
		return
	}
	if a.wasLeader {
		a.sendPromote(ctx)
	}
}

// promoteKeepalive is how many leader ticks may pass without a promote: the
// keepalive that reaches a process whose Ω turned to this leader after
// promote_i last changed.
const promoteKeepalive = 8

// Tick implements model.Automaton: the "local timeout" of Algorithm 5. The
// paper's leader sends promote(promote_i) on every timeout. A growth of
// promote_i is sent in the step that grew it (see promoteOnChange), so this
// one sends only in the two cases nothing else covers:
//   - it was not leader at its previous tick, its first tick included:
//     meanwhile others may have trusted, and adopted the sequence of,
//     another leader, and promote_i may have grown unsent;
//   - promoteKeepalive ticks have passed since its last promote: a process
//     whose Ω turns to this leader after the last change ignored every
//     promote sent before, and a lost promote is otherwise never repeated
//     (retransmission sends promotes raw, see PromoteMsg).
//
// Each receiver thus gets the latest promote_i once it trusts the leader,
// which is all Lemma 3 uses. The counter advances on every leader tick, sent
// or not, and not per send. A restarted leader starts from zero, and its
// followers drop its promotes until the counter passes its old
// incarnation's; a per-tick counter climbs past it at one per tick, so the
// stale-promote guard in adopt mutes it no longer than when the leader sent
// on every tick. A counter advanced per send would climb one per keepalive
// while idle.
func (a *Automaton) Tick(ctx model.Context) {
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok || leader != a.self {
		a.wasLeader = false
		return
	}
	a.promoteCtr++
	a.sinceSent++
	if a.wasLeader && a.sinceSent < promoteKeepalive {
		return
	}
	a.wasLeader = true
	a.sendPromote(ctx)
}

// IdleTicks implements model.Waker. A leader's ticks only count until its
// keepalive is due, and the first tick of a process that gained leadership
// sends. A process whose Ω has moved away with wasLeader still set ticks
// next, so that the flag is cleared before Ω can return and a regained
// leadership is announced by a promote. Any other process's ticks do
// nothing.
func (a *Automaton) IdleTicks(fdv any) int64 {
	if leader, ok := fd.LeaderOf(fdv); !ok || leader != a.self {
		if a.wasLeader {
			return 0
		}
		return -1
	}
	if !a.wasLeader {
		return 0
	}
	return int64(max(0, promoteKeepalive-1-a.sinceSent))
}

// sendPromote broadcasts promote(promote_i) under the current counter.
func (a *Automaton) sendPromote(ctx model.Context) {
	n := len(a.promote)
	a.sinceSent = 0
	a.promotesSent++
	ctx.Broadcast(PromoteMsg{Seq: a.promote[:n:n], Counter: a.promoteCtr})
}

// PromotesSent returns how many promote(promote_i) broadcasts this process
// has made.
func (a *Automaton) PromotesSent() int64 { return a.promotesSent }

// resolveDeps returns C(m) for a broadcast: the causal frontier for nil
// deps, otherwise the explicit deps that CG_i holds (see Input). The result
// is scratch, valid until the next call: causal.Graph copies what it keeps.
func (a *Automaton) resolveDeps(deps []string) []string {
	if deps == nil {
		return a.frontier()
	}
	known := a.deps[:0]
	for _, d := range deps {
		if a.cg.Has(d) {
			known = append(known, d)
		}
	}
	a.deps = known
	return known
}

// updateCG is the paper's UpdateCG(m, C(m)), keeping the frontier in sync.
func (a *Automaton) updateCG(m string, deps []string) {
	a.cg.AddReporting(m, deps, a.coverEdge)
	a.syncFront()
}

// unionCG is the paper's UnionCG(CG_j), keeping the frontier in sync. The
// mark kept per sender lets an in-process snapshot that extends the last one
// merged from that sender cost only its new nodes (causal.MergeSince).
func (a *Automaton) unionCG(from model.ProcID, other *causal.Graph) {
	a.marks[from] = a.cg.MergeSince(other, a.marks[from], a.coverEdge)
	a.syncFront()
}

// syncFront adds the nodes CG_i gained since the last sync to the frontier.
func (a *Automaton) syncFront() {
	for _, m := range a.cg.NodesFrom(a.synced) {
		a.front[m] = struct{}{}
	}
	a.synced = a.cg.Len()
}

// coverEdge is the new-edge hook of every CG_i update: dep now has a
// successor. Nodes are added before the edges that name them, so syncing
// first lets a node that gains a successor in the same update leave.
func (a *Automaton) coverEdge(dep string) {
	a.syncFront()
	delete(a.front, dep)
}

// updatePromote is the paper's UpdatePromote(): extend promote_i to a
// sequence containing all of CG_i once, respecting every edge, with the old
// promote_i as a prefix. promote_i holds exactly the nodes CG_i had at the
// last extension, so ExtendSince places only the ones added since; when CG_i
// has not changed (its mark has not moved), there is nothing to place, and
// skipping the call removes the cost of redundant update floods. It reports
// whether promote_i grew.
func (a *Automaton) updatePromote() bool {
	if a.cg.Mark() == a.promoted {
		return false
	}
	next, err := a.cg.ExtendSince(a.promote, a.promoted)
	if err != nil {
		// Cannot occur in Algorithm 5: update messages carry dependency-closed
		// graphs, so the promote prefix never violates a new edge. A failure
		// here is a protocol-invariant bug worth crashing the simulation for.
		panic(fmt.Sprintf("etob: UpdatePromote invariant violated at %v: %v", a.self, err))
	}
	grew := len(next) > len(a.promote)
	a.promote = next
	a.promoted = a.cg.Mark()
	return grew
}

// frontier returns the causal frontier: all known messages with no known
// successor, in deterministic (sorted) order. Used as the default C(m). The
// result is scratch, like resolveDeps'.
func (a *Automaton) frontier() []string {
	out := a.deps[:0]
	for m := range a.front {
		out = append(out, m)
	}
	sort.Strings(out)
	a.deps = out
	return out
}

// Delivered returns a copy of the current output variable d_i.
func (a *Automaton) Delivered() []string { return append([]string(nil), a.d...) }

// Promote returns a copy of the current promotion sequence promote_i.
func (a *Automaton) Promote() []string { return append([]string(nil), a.promote...) }

// KnownMessages returns the number of messages in CG_i.
func (a *Automaton) KnownMessages() int { return a.cg.Len() }
