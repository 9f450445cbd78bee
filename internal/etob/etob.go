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
// max-batch-size + max-linger flush policy with an optional AIMD self-tuning
// target; at k=1 it degenerates bit-for-bit to the unbatched automaton. See
// the flush-policy contract in batch.go.
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

// UpdateMsg is the update(CG_i) message: the sender's causality graph.
// Receivers only read the graph, so a single clone per send is safe.
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
type PromoteMsg struct {
	Seq     []string
	Counter int64
}

// Automaton is the per-process automaton of Algorithm 5.
type Automaton struct {
	self model.ProcID
	n    int

	d       []string       // d_i: output sequence
	promote []string       // promote_i
	cg      *causal.Graph  // CG_i
	succ    map[string]int // # of known causal successors per message (frontier tracking)

	promoteCtr int64                  // counter stamped on our promote messages
	lastCtr    map[model.ProcID]int64 // highest promote counter adopted per sender

	// cgDirty is set when CG_i gained a node or edge since the last
	// UpdatePromote. Extend is a pure function of (graph, prefix) and
	// promote_i already contains every node after each UpdatePromote, so an
	// update that adds nothing would extend to the identical sequence —
	// skipping it is behavior-preserving and removes the dominant cost of
	// redundant update floods.
	cgDirty bool

	// Batching layer (batch.go): queued broadcastETOB invocations awaiting
	// one coalesced update(CG_i). Inert — never touched — unless
	// batch.Enabled().
	batch         BatchOptions
	pending       []pendingOp
	linger        int   // ticks the oldest queued op has waited
	target        int   // current batch-size target (fixed or adaptive)
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
	return &Automaton{
		self:    p,
		n:       n,
		cg:      causal.New(),
		succ:    make(map[string]int),
		lastCtr: make(map[model.ProcID]int64),
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
	if deps == nil {
		deps = a.frontier()
	}
	a.updateCG(id, deps)
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
		a.unionCG(m.CG)
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
			a.d = append(a.d[:0:0], m.Seq...)
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
	ctx.Broadcast(PromoteMsg{Seq: append([]string(nil), a.promote...), Counter: a.promoteCtr})
}

// updateCG is the paper's UpdateCG(m, C(m)). Successor counts advance once
// per edge that is new to CG_i, which AddReporting surfaces directly —
// missing succ keys read as zero, so no explicit zero entry is needed.
func (a *Automaton) updateCG(m string, deps []string) {
	if a.cg.AddReporting(m, deps, func(d string) { a.succ[d]++ }) {
		a.cgDirty = true
	}
}

// unionCG is the paper's UnionCG(CG_j), keeping frontier bookkeeping in sync.
func (a *Automaton) unionCG(other *causal.Graph) {
	if a.cg.MergeFrom(other, func(d string) { a.succ[d]++ }) {
		a.cgDirty = true
	}
}

// updatePromote is the paper's UpdatePromote(): extend promote_i to a
// sequence containing all of CG_i once, respecting every edge, with the old
// promote_i as a prefix. When CG_i has not changed since the last extension,
// promote_i already contains every node and Extend would return it unchanged.
func (a *Automaton) updatePromote() {
	if !a.cgDirty {
		return
	}
	next, err := a.cg.Extend(a.promote)
	if err != nil {
		// Cannot occur in Algorithm 5: update messages carry dependency-closed
		// graphs, so the promote prefix never violates a new edge. A failure
		// here is a protocol-invariant bug worth crashing the simulation for.
		panic(fmt.Sprintf("etob: UpdatePromote invariant violated at %v: %v", a.self, err))
	}
	a.promote = next
	a.cgDirty = false
}

// frontier returns the causal frontier: all known messages with no known
// successor, in deterministic (sorted) order. Used as the default C(m).
func (a *Automaton) frontier() []string {
	var out []string
	for _, m := range a.cg.Nodes() {
		if a.succ[m] == 0 {
			out = append(out, m)
		}
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
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
