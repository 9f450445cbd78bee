// Package ec implements eventual consensus (EC) from Ω — Algorithm 4 of the
// paper — in any environment (Lemma 2). The abstraction exports operations
// proposeEC_1, proposeEC_2, ... and guarantees, in every admissible run,
// EC-Termination, EC-Integrity and EC-Validity always, and EC-Agreement from
// some instance k onward (all responses to proposeEC_ℓ coincide for ℓ ≥ k).
//
// The algorithm (per process p_i):
//
//	On invocation of proposeEC_ℓ(v):
//	    count_i := ℓ
//	    send promote(v, ℓ) to all
//	On reception of promote(v, ℓ) from p_j:
//	    received_i[j, ℓ] := v
//	On local timeout:
//	    if received_i[Ω_i, count_i] ≠ ⊥ then
//	        DecideEC(count_i, received_i[Ω_i, count_i])
//
// The implementation is multivalued (values are strings); the paper notes the
// binary→multivalued transformation is standard [Mostefaoui–Raynal–Tronel].
package ec

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
)

// PromoteMsg is the promote(v, ℓ) message of Algorithm 4.
type PromoteMsg struct {
	Value    string
	Instance int
}

// Driver supplies the value a process proposes to the next instance, closing
// the loop the EC specification assumes ("every process invokes proposeEC_j
// as soon as it returns a response to proposeEC_{j−1}"). Returning ok=false
// stops the process after the current instance.
type Driver func(p model.ProcID, instance int) (value string, ok bool)

// Automaton is the per-process automaton of Algorithm 4.
type Automaton struct {
	self model.ProcID
	n    int

	count    int                             // count_i: last instance invoked
	received map[model.ProcID]map[int]string // received_i[j, ℓ]
	decided  map[int]bool                    // instances already responded to
	driver   Driver                          // optional auto-proposer
	values   map[int]string                  // values this process proposed
}

var _ model.Automaton = (*Automaton)(nil)

// New returns the Algorithm 4 automaton for process p of n. Proposals arrive
// as model.ProposeInput inputs.
func New(p model.ProcID, n int) *Automaton {
	return &Automaton{
		self:     p,
		n:        n,
		received: make(map[model.ProcID]map[int]string, n),
		decided:  make(map[int]bool),
		values:   make(map[int]string),
	}
}

// Factory adapts New to model.AutomatonFactory.
func Factory() model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return New(p, n) }
}

// DrivenFactory returns the factory of automata whose Driver proposes
// instance 1 at Init and instance ℓ+1 as soon as instance ℓ decides.
func DrivenFactory(d Driver) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		a := New(p, n)
		a.driver = d
		return a
	}
}

// Init implements model.Automaton.
func (a *Automaton) Init(ctx model.Context) {
	if a.driver != nil {
		if v, ok := a.driver(a.self, 1); ok {
			ctx.Output(model.ProposeInput{Instance: 1, Value: v})
			a.propose(ctx, 1, v)
		}
	}
}

// Input implements model.Automaton: a model.ProposeInput is proposeEC_ℓ(v).
func (a *Automaton) Input(ctx model.Context, in any) {
	pi, ok := in.(model.ProposeInput)
	if !ok {
		return
	}
	a.propose(ctx, pi.Instance, pi.Value)
}

// Propose invokes proposeEC_ℓ(v) programmatically (used by the
// transformations of §3, which drive EC as a black box).
func (a *Automaton) Propose(ctx model.Context, instance int, value string) {
	a.propose(ctx, instance, value)
}

func (a *Automaton) propose(ctx model.Context, instance int, value string) {
	if instance <= 0 {
		panic(fmt.Sprintf("ec: proposeEC instance must be >= 1, got %d", instance))
	}
	a.count = instance
	a.values[instance] = value
	ctx.Broadcast(PromoteMsg{Value: value, Instance: instance})
}

// Recv implements model.Automaton.
func (a *Automaton) Recv(ctx model.Context, from model.ProcID, payload any) {
	m, ok := payload.(PromoteMsg)
	if !ok {
		return
	}
	byInst := a.received[from]
	if byInst == nil {
		byInst = make(map[int]string)
		a.received[from] = byInst
	}
	// A process sends promote(·, ℓ) at most once; keep the first value
	// defensively if a duplicate ever arrives.
	if _, dup := byInst[m.Instance]; !dup {
		byInst[m.Instance] = m.Value
	}
}

// Tick implements model.Automaton: the "local timeout" of Algorithm 4.
func (a *Automaton) Tick(ctx model.Context) {
	if a.count == 0 || a.decided[a.count] {
		return
	}
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok {
		return
	}
	v, have := a.received[leader][a.count]
	if !have {
		return
	}
	inst := a.count
	a.decided[inst] = true
	ctx.Output(model.Decision{Instance: inst, Value: v})
	if a.driver != nil {
		if nv, more := a.driver(a.self, inst+1); more {
			// Record the proposal for the EC-Validity checker, then invoke
			// the next instance — the spec's closed loop.
			ctx.Output(model.ProposeInput{Instance: inst + 1, Value: nv})
			a.propose(ctx, inst+1, nv)
		}
	}
}

// Count returns count_i (for inspection in tests).
func (a *Automaton) Count() int { return a.count }

// DecidedUpTo returns the highest instance ℓ such that all instances 1..ℓ
// have been decided by this process.
func (a *Automaton) DecidedUpTo() int {
	l := 0
	for a.decided[l+1] {
		l++
	}
	return l
}
