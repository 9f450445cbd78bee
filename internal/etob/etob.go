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
// A batching layer (batch.go, BatchOptions) coalesces k pending
// broadcastETOB invocations into one update(CG_i) message — same wire
// vocabulary, same receiver logic, ~k× fewer broadcasts — under a
// max-batch-size + max-linger flush policy; at k=1 it degenerates
// bit-for-bit to the unbatched automaton. See the flush-policy contract in
// batch.go.
//
// Dissemination is the paper's: every flush sends the whole update(CG_i) to
// all n processes. Lemma 3 needs only eventual receipt, and the
// retransmission layer (internal/retransmit) restores that over lossy links.
package etob

import (
	"fmt"
	"sort"

	"repro/internal/causal"
	"repro/internal/fd"
	"repro/internal/model"
)

// UpdateMsg is the update(CG_i) message: the sender's causality graph. CG is
// an O(1) snapshot (causal.Graph.Clone) that shares storage with the
// sender's live graph: a read-only view, which receivers merge but never
// mutate. In-process receivers absorb it incrementally (see unionCG).
type UpdateMsg struct {
	CG *causal.Graph
}

// PromoteMsg is the promote(promote_i) message: the leader's current
// promotion sequence. Counter is a per-sender monotone counter: links in the
// model are reliable but not FIFO, and adopting a stale promote after a newer
// one would shrink d_i and break (E)TOB-Stability. Receivers ignore promotes
// older than the last one adopted from the same sender — the standard fix,
// equivalent to the FIFO adoption the paper's Lemma 3 proof implicitly uses
// (it matches d_i(t1), d_i(t2) with promote_j(t3), promote_j(t4), t3 ≤ t4).
//
// Seq is a clipped view of the sender's append-only promote_i, not a copy,
// and a receiver adopts it as d_i as is: it is read-only, shared with the
// sender and with every other receiver.
//
// A promote supersedes its sender's previous one (retransmit.Superseding):
// Algorithm 5 needs only the leader's latest promote_i to reach everyone
// after τ, and it carries the whole sequence, so a retransmission layer stops
// resending an older promote once a newer one is on the link. A late copy of
// an older promote that is already in flight can still arrive after a newer
// one; the counter guard above drops it.
type PromoteMsg struct {
	Seq     []string
	Counter int64
}

// SupersedesPrevious marks PromoteMsg as retransmit.Superseding.
func (PromoteMsg) SupersedesPrevious() {}

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

	marks    map[model.ProcID]causal.Mark // per sender: how much of its CG_j is merged
	promoted causal.Mark                  // CG_i's mark when promote_i was last extended

	promoteCtr int64                  // counter stamped on our promote messages
	lastCtr    map[model.ProcID]int64 // highest promote counter adopted per sender

	// Batching layer (batch.go): queued broadcastETOB invocations awaiting
	// one coalesced update(CG_i). Inert — never touched — unless
	// batch.Enabled().
	batch         BatchOptions
	pending       []pendingOp
	linger        int   // ticks the oldest queued op has waited
	flushes       int64 // update broadcasts emitted by the batch layer
	fullFlushes   int64 // flushes triggered by queue depth
	lingerFlushes int64 // flushes forced by the linger timeout
	batchedOps    int64 // ops that went through the queue

	// onFlush, when set, is called with the op IDs each update(CG_i)
	// broadcast carries (the flushed batch, or the single op on the unbatched
	// path). Observability tap — see SetFlushHook.
	onFlush func(ids []string)
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
		lastCtr:  make(map[model.ProcID]int64),
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
// ETOB→EC transformation, which drives ETOB as a black box). With batching
// enabled (SetBatch) the op is queued for a coalesced update instead — see
// the flush-policy contract in batch.go.
func (a *Automaton) BroadcastETOB(ctx model.Context, id string, deps []string) {
	if a.batch.Enabled() {
		a.enqueue(ctx, id, deps)
		return
	}
	if a.cg.Has(id) {
		return // duplicate broadcast of the same ID: ignore
	}
	a.updateCG(id, a.resolveDeps(deps))
	ctx.Broadcast(UpdateMsg{CG: a.cg.Clone()})
	if a.onFlush != nil {
		a.onFlush([]string{id})
	}
}

// SetFlushHook installs an observability tap called, from within the step
// that broadcasts, with the op IDs each update(CG_i) carries — the flushed
// batch, or the single op on the unbatched path. The node's op-lifecycle
// tracer stamps its batch-flush and broadcast stages here. The hook must not
// retain the slice.
func (a *Automaton) SetFlushHook(fn func(ids []string)) { a.onFlush = fn }

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
		a.updatePromote()
	case PromoteMsg:
		leader, ok := fd.LeaderOf(ctx.FD())
		if !ok || leader != from {
			return
		}
		if m.Counter <= a.lastCtr[from] {
			return // stale promote (links are not FIFO)
		}
		a.lastCtr[from] = m.Counter
		if !equalSeq(a.d, m.Seq) {
			a.d = m.Seq
			ctx.Output(model.SeqSnapshot{Seq: a.d})
		}
	}
}

// Tick implements model.Automaton: the "local timeout" of Algorithm 5. With
// batching enabled, the linger half of the flush policy runs first, so a
// leader flushes its own queued ops before promoting.
func (a *Automaton) Tick(ctx model.Context) {
	if a.batch.Enabled() {
		a.tickBatch(ctx)
	}
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok || leader != a.self {
		return
	}
	a.promoteCtr++
	n := len(a.promote)
	ctx.Broadcast(PromoteMsg{Seq: a.promote[:n:n], Counter: a.promoteCtr})
}

// resolveDeps returns C(m) for a broadcast: the causal frontier for nil
// deps, otherwise the explicit deps that CG_i holds (see Input).
func (a *Automaton) resolveDeps(deps []string) []string {
	if deps == nil {
		return a.frontier()
	}
	known := make([]string, 0, len(deps))
	for _, d := range deps {
		if a.cg.Has(d) {
			known = append(known, d)
		}
	}
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
// skipping the call removes the cost of redundant update floods.
func (a *Automaton) updatePromote() {
	if a.cg.Mark() == a.promoted {
		return
	}
	next, err := a.cg.ExtendSince(a.promote, a.promoted)
	if err != nil {
		// Cannot occur in Algorithm 5: update messages carry dependency-closed
		// graphs, so the promote prefix never violates a new edge. A failure
		// here is a protocol-invariant bug worth crashing the simulation for.
		panic(fmt.Sprintf("etob: UpdatePromote invariant violated at %v: %v", a.self, err))
	}
	a.promote = next
	a.promoted = a.cg.Mark()
}

// frontier returns the causal frontier: all known messages with no known
// successor, in deterministic (sorted) order. Used as the default C(m).
func (a *Automaton) frontier() []string {
	out := make([]string, 0, len(a.front))
	for m := range a.front {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Delivered returns a copy of the current output variable d_i.
func (a *Automaton) Delivered() []string { return append([]string(nil), a.d...) }

// Promote returns a copy of the current promotion sequence promote_i.
func (a *Automaton) Promote() []string { return append([]string(nil), a.promote...) }

// KnownMessages returns the number of messages in CG_i.
func (a *Automaton) KnownMessages() int { return a.cg.Len() }

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true // same memory: adopted views of one promote_i
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
