package model

// This file defines the neutral input/output vocabulary shared by protocols,
// kernels, and the property checkers: the input history H_I (operation
// invocations) and the output history H_O (operation responses / output
// variables) of §2. Protocols consume the input types in Automaton.Input and
// emit the output types through Context.Output; internal/trace records both
// and checks the TOB/ETOB/EC/EIC properties over them.

// BroadcastInput is the invocation broadcastETOB(m, C(m)) (or
// broadcastTOB(m)). ID is the globally unique message identifier (also used
// as the payload in experiments); Deps lists the message IDs m causally
// depends on (the paper's C(m)). A nil Deps lets the protocol compute the
// causal frontier itself.
type BroadcastInput struct {
	ID   string
	Deps []string
}

// ProposeInput is the invocation proposeEC_ℓ(v) (or proposeEIC_ℓ, proposeC).
// Instances are 1-based, matching the paper's proposeEC1, proposeEC2, ...
type ProposeInput struct {
	Instance int
	Value    string
}

// SeqSnapshot is emitted by broadcast protocols whenever the output variable
// d_i changes: Seq is the new value of d_i (message IDs in delivery order).
//
// Seq is read-only: the producer never mutates it after emitting it (it may
// be a view shared with the producer's own state or with other processes),
// and no consumer may mutate it either, so consumers keep it without a copy.
type SeqSnapshot struct {
	Seq []string
}

// CommonPrefix returns the length of the longest common prefix of a and b.
// ETOB-Stability and Total-order are statements about this prefix relation
// on successive values of d_i (§3), so a consumer that keeps the previous
// Seq learns with it what the new one kept and what it gained. Slices that
// start at the same element share their first min(len(a), len(b)) elements,
// so views of one append-only array compare in O(1).
func CommonPrefix(a, b []string) int {
	n := min(len(a), len(b))
	if n == 0 || &a[0] == &b[0] {
		return n
	}
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Decision is emitted when a consensus-style protocol returns a response to
// proposeEC_ℓ / proposeEIC_ℓ / proposeC: DecideEC(ℓ, v).
type Decision struct {
	Instance int
	Value    string
}

// LeaderOutput is emitted by Ω-emulation protocols (the CHT reduction and the
// heartbeat Ω) whenever their Ω-output variable changes.
type LeaderOutput struct {
	Leader ProcID
}
