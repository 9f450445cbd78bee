package model

// This file defines the step model of §2: an algorithm A is a collection of
// deterministic automata, one per process. In each step a process atomically
// (1) receives a single message m (possibly the empty message λ) or accepts
// an external input, (2) queries its failure detector and receives a value d,
// (3) changes its state, and (4) sends messages / produces outputs.
//
// Automata are written against the Context interface so that the same
// protocol code runs unchanged under the deterministic simulator
// (internal/sim), the live goroutine runtime (internal/runtime), and the
// CHT step-by-step simulation (internal/cht).

// Context is the environment an automaton sees during a single step.
// Implementations are only valid for the duration of the step: the kernel,
// the live runtime and every wrapping layer (internal/retransmit,
// internal/smr) keep one context value each and reset it for every step, so
// nothing is allocated per step. An automaton must therefore not keep a
// Context, or a context a wrapper derived from it, past the step: a kept one
// silently reads and acts as whatever step runs next.
type Context interface {
	// Self returns the ID of the process taking the step.
	Self() ProcID
	// N returns the number of processes in the system.
	N() int
	// Now returns the current global time. The paper's processes cannot read
	// the global clock; protocol code must use Now only for logging/outputs,
	// never for decisions. The simulator's checkers enforce protocol
	// determinism independently of Now.
	Now() Time
	// FD returns the failure detector value d received in this step.
	FD() any
	// Send sends a message payload to a single process (reliable link).
	Send(to ProcID, payload any)
	// Broadcast sends a message payload to every process, including the
	// sender itself (the paper's "Send to all processes (including pi)").
	Broadcast(payload any)
	// Output produces a value to the external world (the output history H_O).
	Output(v any)
}

// Automaton is the deterministic automaton A(p) of one process.
//
// The zero value of an implementation should be unusable; constructors wire
// in process ID and protocol parameters.
type Automaton interface {
	// Init is called once, at the initial configuration, before any step.
	Init(ctx Context)
	// Recv handles a step that receives message payload from a process.
	Recv(ctx Context, from ProcID, payload any)
	// Tick handles a λ-step: no message is received. Kernels schedule ticks
	// periodically; protocols use them as the paper's "local timeout".
	Tick(ctx Context)
	// Input handles a step accepting an input from the external world
	// (an operation invocation such as broadcastETOB(m) or proposeEC(v)).
	Input(ctx Context, in any)
}

// AutomatonFactory builds the automaton of each process; used by kernels to
// instantiate a fresh protocol instance per run.
type AutomatonFactory func(p ProcID, n int) Automaton

// Waker is an optional extension of Automaton for a kernel that wakes a
// process only for due work (the live runtime does; the simulator ticks
// every process every TickInterval and never asks).
//
// IdleTicks returns how many of the coming ticks would only advance
// counters, given that the detector value stays fd: ticks that send,
// output and decide nothing, so that running them late, all just before
// the process's next step, changes nothing anyone observes. It returns −1
// when no coming tick is due while fd stays the same. A kernel that asks
// must still run every tick (deferred, not skipped), and must ask again
// after every step and whenever the detector value changes.
type Waker interface {
	IdleTicks(fd any) int64
}

// IdleTicks returns a's answer when it is a Waker, and 0 (the next tick is
// due) when it is not, so that a layer wrapping an automaton that does not
// say keeps it ticking every TickInterval.
func IdleTicks(a Automaton, fd any) int64 {
	if w, ok := a.(Waker); ok {
		return w.IdleTicks(fd)
	}
	return 0
}
