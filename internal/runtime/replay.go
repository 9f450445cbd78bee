package runtime

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/trace"
)

// Replay is the conformance oracle of the service plane: it re-executes a
// recorded live run through fresh automata under the deterministic step
// discipline and checks that every step's emissions — sends and outputs —
// match what the live run produced.
//
// The premise is the paper's determinism of automata (§2): a process's state
// evolution is a function of its step schedule alone — the sequence of
// (trigger, payload, detector value, clock reading) it experienced. A live
// Proc records exactly that schedule into a trace.StepLog (Options.StepLog);
// Replay partitions the log per process, rebuilds each automaton from the
// same factory, and replays its steps single-threaded with the recorded FD
// and clock values. If any transport, goroutine interleaving, or codec quirk
// forked the semantics — a codec round trip that mangled a payload, a context
// leaking live state, an automaton consulting a wall clock it shouldn't —
// the replayed emissions diverge from the recorded ones and Replay reports
// the first offending step.
//
// The oracle deliberately compares EMISSIONS, not internal state: emissions
// are what the rest of the cluster observes, they are recorded at the only
// boundary all runtimes share (model.Context), and matching them step-by-step
// pins the whole state evolution for deterministic automata without
// requiring states to be comparable.
func Replay(n int, factory model.AutomatonFactory, log *trace.StepLog) error {
	autos := make(map[model.ProcID]model.Automaton)
	for i, want := range log.Steps() {
		p := want.P
		if p < 1 || int(p) > n {
			return fmt.Errorf("step %d: process %v outside 1..%d", i, p, n)
		}
		a := autos[p]
		if want.Kind == trace.StepInit {
			a = factory(p, n)
			autos[p] = a
		} else if a == nil {
			return fmt.Errorf("step %d: %v takes a step before its Init was recorded", i, p)
		}
		ctx := &replayCtx{self: p, n: n, now: want.Now, fdv: want.FD}
		switch want.Kind {
		case trace.StepInit:
			a.Init(ctx)
		case trace.StepTick:
			a.Tick(ctx)
		case trace.StepInput:
			a.Input(ctx, want.In)
		case trace.StepRecv:
			a.Recv(ctx, want.From, want.Payload)
		default:
			return fmt.Errorf("step %d: unknown step kind %d", i, want.Kind)
		}
		got := trace.Step{Sends: ctx.sends, Outputs: ctx.outputs}
		if !trace.SameEmissions(&want, &got) {
			return fmt.Errorf("step %d (%v, kind %d): emissions diverged\n  recorded: sends=%v outputs=%v\n  replayed: sends=%v outputs=%v",
				i, p, want.Kind, want.Sends, want.Outputs, got.Sends, got.Outputs)
		}
	}
	return nil
}

// replayCtx feeds an automaton the recorded step environment and captures
// what it emits.
type replayCtx struct {
	self    model.ProcID
	n       int
	now     model.Time
	fdv     any
	sends   []trace.SendRec
	outputs []any
}

var _ model.Context = (*replayCtx)(nil)

func (c *replayCtx) Self() model.ProcID { return c.self }
func (c *replayCtx) N() int             { return c.n }
func (c *replayCtx) Now() model.Time    { return c.now }
func (c *replayCtx) FD() any            { return c.fdv }

func (c *replayCtx) Send(to model.ProcID, payload any) {
	c.sends = append(c.sends, trace.SendRec{To: to, Payload: payload})
}

func (c *replayCtx) Broadcast(payload any) {
	for _, q := range model.Procs(c.n) {
		c.Send(q, payload)
	}
}

func (c *replayCtx) Output(v any) { c.outputs = append(c.outputs, v) }
