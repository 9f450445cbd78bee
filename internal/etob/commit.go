package etob

import (
	"repro/internal/fd"
	"repro/internal/model"
)

// This file implements the extension sketched in the paper's concluding
// remarks (§7): "such systems sometimes produce indications when a prefix of
// operations on the replicated service is committed, i.e., is not subject to
// further changes. A prefix of operations can be committed, e.g., in
// sufficiently long periods of synchrony, when a majority of correct
// processes elect the same leader [...]. We believe that such indications
// could easily be implemented, during the stable periods, on top of ETOB."
//
// Mechanism: whenever a process adopts a promote sequence from the leader it
// currently trusts, it broadcasts an acknowledgment (leader, promote counter,
// adopted length). A process considers a prefix of length L committed once a
// majority of processes have acknowledged sequences of length >= L from the
// same leader it currently trusts. As the paper says, this is an INDICATION:
// it is stable in every run in which the elected leader does not change
// afterwards (in particular, always after Ω's stabilization time); during
// unstable periods a later leader may still reorder an indicated prefix.
// CommitChecker in the test suite measures exactly that.

// AckMsg acknowledges the adoption of a leader's promote sequence.
type AckMsg struct {
	Leader  model.ProcID
	Counter int64
	Len     int
}

// CommitOutput is emitted when the committed prefix grows.
type CommitOutput struct {
	Prefix []string
}

// CommitAutomaton is Algorithm 5 extended with committed-prefix indications.
type CommitAutomaton struct {
	*Automaton
	n        int
	majority int

	ackedLen  map[model.ProcID]int          // per acker: max acked length...
	ackedFor  map[model.ProcID]model.ProcID // ...and for which leader
	committed int                           // length of the last indicated prefix
	dFrom     model.ProcID                  // the leader whose promote d_i was last adopted from
}

var _ model.Automaton = (*CommitAutomaton)(nil)

// CommitFactory returns the factory of the extended automaton.
func CommitFactory() model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		return &CommitAutomaton{
			Automaton: New(p, n),
			n:         n,
			majority:  n/2 + 1,
			ackedLen:  make(map[model.ProcID]int, n),
			ackedFor:  make(map[model.ProcID]model.ProcID, n),
		}
	}
}

// Recv implements model.Automaton: handle acks, and acknowledge every
// adopted promote.
func (a *CommitAutomaton) Recv(ctx model.Context, from model.ProcID, payload any) {
	if ack, ok := payload.(AckMsg); ok {
		a.ackedLen[from] = ack.Len
		a.ackedFor[from] = ack.Leader
		a.maybeCommit(ctx)
		return
	}
	m, ok := payload.(PromoteMsg)
	if !ok {
		a.Automaton.Recv(ctx, from, payload)
		return
	}
	if a.adopt(ctx, from, m) {
		// Adopted a fresh promote from the leader we trust: acknowledge to
		// everyone, including ourselves.
		a.dFrom = from
		ctx.Broadcast(AckMsg{Leader: from, Counter: m.Counter, Len: len(m.Seq)})
	}
}

// maybeCommit checks whether a longer prefix is now acknowledged by a
// majority under the leader we currently trust.
func (a *CommitAutomaton) maybeCommit(ctx model.Context) {
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok || a.dFrom != leader {
		// Acks for leader's promote_i vouch for prefixes of leader's
		// sequence, and d_i is one only once it was adopted from leader: a
		// majority can ack a new leader's promote before it reaches us.
		return
	}
	// Candidate lengths: sort acked lengths of processes acking our leader.
	lens := make([]int, 0, a.n)
	for p, l := range a.ackedLen {
		if a.ackedFor[p] == leader {
			lens = append(lens, l)
		}
	}
	if len(lens) < a.majority {
		return
	}
	// The committed length is the majority'th largest acked length.
	for i := 0; i < len(lens); i++ {
		for j := i + 1; j < len(lens); j++ {
			if lens[j] > lens[i] {
				lens[i], lens[j] = lens[j], lens[i]
			}
		}
	}
	cand := lens[a.majority-1]
	if cand > len(a.d) {
		cand = len(a.d) // we can only indicate what we have adopted ourselves
	}
	if cand > a.committed {
		a.committed = cand
		ctx.Output(CommitOutput{Prefix: append([]string(nil), a.d[:cand]...)})
	}
}

// Committed returns the length of the last indicated prefix.
func (a *CommitAutomaton) Committed() int { return a.committed }
