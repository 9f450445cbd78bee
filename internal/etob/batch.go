package etob

import (
	"slices"

	"repro/internal/model"
)

// This file is the batching layer of Algorithm 5: coalescing k pending
// broadcastETOB invocations into ONE update(CG_i) message. The protocol makes
// this free — update messages carry the sender's whole causality graph, so a
// graph that grew by k nodes since the last send is still one message, and
// receivers' UnionCG absorbs k ops exactly as it absorbs one. Batching
// therefore changes no message type and no receiver logic; it only changes
// WHEN the sender snapshots and broadcasts its graph.
//
// # Flush-policy contract
//
// A batched automaton queues each broadcastETOB(m, C(m)) instead of applying
// it, and flushes the queue — applying every queued UpdateCG in submission
// order, then broadcasting a single update(CG_i) — when either:
//
//   - the queue reaches the batch-size target MaxBatch, or
//   - a queued op has waited MaxLinger local timeouts (ticks), whichever
//     comes first. Linger flushing runs at the START of Tick, before the
//     leader's promote step, so a leader never promotes around its own
//     queued ops within the same timeout.
//
// Dependencies are resolved at FLUSH time, not submission time: an op queued
// with nil deps takes the causal frontier as of its own UpdateCG, which by
// then includes every earlier op of the same batch — intra-batch causality
// (op_2 after op_1) is preserved exactly as if the ops had been broadcast
// individually. Explicit deps pass through, less any that CG_i does not hold
// at flush time, as on the unbatched path (see Input).
//
// Degeneration: with MaxBatch <= 1, BroadcastETOB takes the
// historical immediate path — the queue is never touched, and every trace is
// byte-identical to the unbatched automaton (the golden tables pin this).
//
// The batch is sender-local state, not protocol state: a crash loses queued
// (unflushed) ops exactly as it loses ops the client never submitted, which
// is the same durability contract the unbatched automaton offers between
// accepting a broadcast and its update message leaving the process.

// BatchOptions configures the batching layer of a (Commit)Automaton.
type BatchOptions struct {
	// MaxBatch is the batch-size target: the queue flushes when it holds
	// this many ops. <= 1 disables batching — the automaton behaves
	// bit-for-bit like the unbatched one.
	MaxBatch int
	// MaxLinger is the maximum number of local timeouts (ticks) a queued op
	// waits before a flush is forced regardless of queue depth. Default 1:
	// an op never waits more than one tick beyond its submission.
	MaxLinger int
}

// Enabled reports whether these options actually batch.
func (o BatchOptions) Enabled() bool { return o.MaxBatch > 1 }

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxLinger <= 0 {
		o.MaxLinger = 1
	}
	return o
}

// pendingOp is one queued broadcastETOB invocation.
type pendingOp struct {
	id   string
	deps []string // nil = frontier at flush time
}

// BatchStats is a snapshot of the batching layer's counters.
type BatchStats struct {
	// Flushes is the number of update(CG_i) broadcasts the layer emitted.
	Flushes int64
	// FullFlushes and LingerFlushes split Flushes by trigger: queue depth
	// reaching the target vs the linger timeout forcing out a partial batch.
	FullFlushes   int64
	LingerFlushes int64
	// Ops is the number of broadcastETOB invocations that went through the
	// queue (Ops/Flushes is the realized mean batch size).
	Ops int64
	// Target is the batch-size target, MaxBatch.
	Target int
	// Queued is the number of ops currently waiting for a flush.
	Queued int
}

// NewBatched returns the Algorithm 5 automaton with the batching layer
// configured. NewBatched(p, n, BatchOptions{}) is New(p, n).
func NewBatched(p model.ProcID, n int, o BatchOptions) *Automaton {
	a := New(p, n)
	a.SetBatch(o)
	return a
}

// BatchedFactory adapts NewBatched to model.AutomatonFactory.
func BatchedFactory(o BatchOptions) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return NewBatched(p, n, o) }
}

// SetBatch installs the batch options. Must be called before the automaton
// takes its first step.
func (a *Automaton) SetBatch(o BatchOptions) { a.batch = o.withDefaults() }

// BatchStats returns the batching layer's counters.
func (a *Automaton) BatchStats() BatchStats {
	return BatchStats{
		Flushes:       a.flushes,
		FullFlushes:   a.fullFlushes,
		LingerFlushes: a.lingerFlushes,
		Ops:           a.batchedOps,
		Target:        a.batch.MaxBatch,
		Queued:        len(a.pending),
	}
}

// enqueue queues one broadcastETOB invocation and flushes if the queue
// reached the target.
func (a *Automaton) enqueue(ctx model.Context, id string, deps []string) {
	if a.cg.Has(id) || a.inQueue(id) {
		return // duplicate broadcast of the same ID: ignore, as unbatched does
	}
	// Callers may reuse their slice. slices.Clone keeps an explicit empty
	// C(m) non-nil, so it is not mistaken for a request for the frontier.
	a.pending = append(a.pending, pendingOp{id: id, deps: slices.Clone(deps)})
	a.batchedOps++
	if len(a.pending) >= a.batch.MaxBatch {
		a.flush(ctx, true)
	}
}

// inQueue reports whether id is already waiting for a flush. The queue is
// bounded by the batch target, so the linear scan is cheaper than keeping a
// set in sync.
func (a *Automaton) inQueue(id string) bool {
	for i := range a.pending {
		if a.pending[i].id == id {
			return true
		}
	}
	return false
}

// flush applies every queued op to CG_i in submission order and broadcasts
// one update(CG_i). full reports whether the flush was triggered by queue
// depth (as opposed to linger).
func (a *Automaton) flush(ctx model.Context, full bool) {
	if len(a.pending) == 0 {
		return
	}
	var ids []string
	if a.onFlush != nil {
		ids = make([]string, 0, len(a.pending))
	}
	for i := range a.pending {
		op := &a.pending[i]
		a.updateCG(op.id, a.resolveDeps(op.deps))
		if ids != nil {
			ids = append(ids, op.id)
		}
	}
	a.pending = a.pending[:0]
	a.linger = 0
	a.flushes++
	if full {
		a.fullFlushes++
	} else {
		a.lingerFlushes++
	}
	ctx.Broadcast(UpdateMsg{CG: a.cg.Clone()})
	if a.onFlush != nil {
		a.onFlush(ids)
	}
}

// tickBatch runs the linger half of the flush policy; called at the start of
// every Tick, before the promote step.
func (a *Automaton) tickBatch(ctx model.Context) {
	if len(a.pending) == 0 {
		return
	}
	a.linger++
	if a.linger >= a.batch.MaxLinger {
		a.flush(ctx, false)
	}
}
