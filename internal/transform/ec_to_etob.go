package transform

import (
	"repro/internal/model"
)

// PushMsg is the push(m) message of Algorithm 1: the raw dissemination of a
// broadcast message to every process.
type PushMsg struct {
	ID string
}

// ECToETOB is Algorithm 1, T_EC→ETOB: it implements ETOB given any EC
// implementation. Per process p_i it keeps the output sequence d_i, the set
// toDeliver_i of all messages received so far, and the instance counter
// count_i, and runs the loop
//
//	On broadcastETOB(m):            Send push(m) to all
//	On reception of push(m):        toDeliver_i := toDeliver_i ∪ {m}
//	On response d of proposeEC_ℓ:   d_i := d; count_i++;
//	                                proposeEC_count(d_i · NewBatch(d_i, toDeliver_i))
//	On local timeout:               if count_i = 0 then count_i := 1;
//	                                proposeEC_1(NewBatch(d_i, toDeliver_i))
//
// Note Algorithm 1 provides no causal-order guarantee (that is Algorithm 5's
// extra property); the Deps argument of BroadcastETOB is accepted and ignored.
type ECToETOB struct {
	self  model.ProcID
	n     int
	inner ECProtocol

	d         []string        // d_i
	toDeliver []string        // toDeliver_i in arrival order (deterministic NewBatch)
	inSet     map[string]bool // membership index for toDeliver_i
	count     int             // count_i
}

var (
	_ model.Automaton = (*ECToETOB)(nil)
	_ ETOBProtocol    = (*ECToETOB)(nil)
)

const layerECToETOB = "ec->etob"

// NewECToETOB wraps an EC implementation into an ETOB implementation.
func NewECToETOB(p model.ProcID, n int, inner ECProtocol) *ECToETOB {
	return &ECToETOB{self: p, n: n, inner: inner, inSet: make(map[string]bool)}
}

// ECToETOBFactory builds the transformation over a fresh inner EC instance
// per process.
func ECToETOBFactory(innerFactory func(p model.ProcID, n int) ECProtocol) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		return NewECToETOB(p, n, innerFactory(p, n))
	}
}

func (a *ECToETOB) ctx(outer model.Context) innerCtx {
	return innerCtx{outer: outer, layer: layerECToETOB, onOutput: a.onInnerOutput}
}

// Init implements model.Automaton.
func (a *ECToETOB) Init(ctx model.Context) { a.inner.Init(a.ctx(ctx)) }

// Input implements model.Automaton: model.BroadcastInput is broadcastETOB(m).
func (a *ECToETOB) Input(ctx model.Context, in any) {
	b, ok := in.(model.BroadcastInput)
	if !ok {
		return
	}
	a.BroadcastETOB(ctx, b.ID, b.Deps)
}

// BroadcastETOB implements ETOBProtocol. Deps are ignored (see type comment).
func (a *ECToETOB) BroadcastETOB(ctx model.Context, id string, _ []string) {
	ctx.Broadcast(PushMsg{ID: id})
}

// Recv implements model.Automaton.
func (a *ECToETOB) Recv(ctx model.Context, from model.ProcID, payload any) {
	switch m := payload.(type) {
	case PushMsg:
		if !a.inSet[m.ID] {
			a.inSet[m.ID] = true
			a.toDeliver = append(a.toDeliver, m.ID)
		}
	case wrapped:
		if m.Layer == layerECToETOB {
			a.inner.Recv(a.ctx(ctx), from, m.Inner)
		}
	}
}

// Tick implements model.Automaton.
func (a *ECToETOB) Tick(ctx model.Context) {
	a.inner.Tick(a.ctx(ctx))
	if a.count == 0 {
		a.count = 1
		a.inner.Propose(a.ctx(ctx), 1, encodeSeq(a.newBatch()))
	}
}

// onInnerOutput handles responses from the inner EC ("On reception of d as
// response of proposeEC_ℓ").
func (a *ECToETOB) onInnerOutput(outer model.Context, v any) {
	dec, ok := v.(model.Decision)
	if !ok || dec.Instance != a.count {
		return // not a response to our pending invocation
	}
	d := decodeSeq(dec.Value)
	if keep := model.CommonPrefix(a.d, d); keep < len(a.d) || keep < len(d) {
		a.d = d
		outer.Output(model.SeqSnapshot{Seq: a.d})
	}
	a.count++
	next := append(append([]string(nil), a.d...), a.newBatch()...)
	a.inner.Propose(a.ctx(outer), a.count, encodeSeq(next))
}

// newBatch is the paper's NewBatch(d_i, toDeliver_i): all received messages
// not yet in d_i, in deterministic arrival order, each exactly once.
func (a *ECToETOB) newBatch() []string {
	inD := make(map[string]bool, len(a.d))
	for _, id := range a.d {
		inD[id] = true
	}
	var out []string
	for _, id := range a.toDeliver {
		if !inD[id] {
			out = append(out, id)
		}
	}
	return out
}

// Delivered returns a copy of the current d_i (for inspection).
func (a *ECToETOB) Delivered() []string { return append([]string(nil), a.d...) }
