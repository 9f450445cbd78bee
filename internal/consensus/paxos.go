// Package consensus implements the strong-consistency baseline the paper
// compares against: a replicated log built from Paxos-style consensus
// instances, driven by Ω for liveness [Lamport 98; CHT96].
//
// Two quorum regimes are supported, capturing the paper's Σ discussion:
//
//   - Majority quorums: the classical setting — safe everywhere, live only
//     while a majority of processes is correct (Ω alone suffices as the
//     failure detector in the majority environment).
//   - Σ quorums: phase completion waits for a full quorum currently output
//     by the Σ failure detector (the detector value must be an
//     fd.OmegaSigmaValue). With the Σ oracle this stays live in ANY
//     environment — exhibiting exactly the information gap the paper
//     identifies between consistency and eventual consistency.
//
// The log delivers an invocation after three communication steps in the
// steady state (submit → accept → accepted), matching the lower bound for
// strong consistency [Lamport, Distributed Computing 2006] that the paper
// contrasts with ETOB's two steps.
//
// Sequence exposes independent single-decree instances as a strong consensus
// sequence, and TOBFactory builds the textbook batch-based total order
// broadcast over it. LogFactory and TOBFactory are the two strong TOB
// baselines; their liveness needs majority (or Σ) quorums, which the paper's
// ETOB does not — that contrast is experiment E5.
package consensus

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/fd"
	"repro/internal/model"
)

// QuorumMode selects how phase completion is decided.
type QuorumMode int

// Supported quorum regimes.
const (
	// MajorityQuorums requires >n/2 responders (classical Paxos).
	MajorityQuorums QuorumMode = iota + 1
	// SigmaQuorums requires the responders to include some quorum currently
	// output by Σ at this process.
	SigmaQuorums
)

// SubmitMsg asks the current leader to order a message ID.
type SubmitMsg struct {
	ID string
}

// PrepareMsg is Paxos phase-1a.
type PrepareMsg struct {
	Ballot int64
}

// BallotValue is an accepted (ballot, value) pair for one instance.
type BallotValue struct {
	Ballot int64
	Value  string
}

// PromiseMsg is Paxos phase-1b: the acceptor's accepted values per instance.
type PromiseMsg struct {
	Ballot   int64
	Accepted map[int]BallotValue
}

// AcceptMsg is Paxos phase-2a for one log instance.
type AcceptMsg struct {
	Ballot   int64
	Instance int
	Value    string
}

// AcceptedMsg is Paxos phase-2b, broadcast to all processes (learners).
type AcceptedMsg struct {
	Ballot   int64
	Instance int
	Value    string
}

type voteKey struct {
	instance int
	ballot   int64
	value    string
}

// voteSet counts distinct voters at insert time: the membership map dedups
// retransmitted AcceptedMsgs and serves Σ-quorum inclusion checks, while the
// counter answers the majority test in O(1) per delivery — no rescan of the
// collected set, which is what hurts at n in the hundreds.
type voteSet struct {
	seen  map[model.ProcID]bool
	count int
}

// add records a voter, returning true when it was new.
func (v *voteSet) add(p model.ProcID) bool {
	if v.seen[p] {
		return false
	}
	v.seen[p] = true
	v.count++
	return true
}

// Log is a totally ordered replicated log: the strong TOB baseline.
// Broadcast inputs (model.BroadcastInput) are submitted to the leader, chosen
// via Paxos instances, and delivered in instance order; the evolving d_i is
// emitted as model.SeqSnapshot outputs.
type Log struct {
	self model.ProcID
	n    int
	mode QuorumMode

	// Acceptor state.
	promised int64
	accepted map[int]BallotValue

	// Proposer state.
	ballot    int64           // our current ballot (0 = none)
	leading   bool            // phase 1 complete for our ballot
	promises  voteSet         // promise senders for our ballot
	proposals map[int]string  // instance → value proposed under our ballot
	proposed  map[string]bool // IDs assigned to an instance by us
	nextInst  int             // next free instance
	maxBallot int64           // highest ballot seen anywhere

	// Pending client messages (arrival order, deduplicated).
	pending    []string
	pendingSet map[string]bool

	// Learner state.
	votes     map[voteKey]*voteSet
	chosen    map[int]string
	chosenIDs map[string]bool
	delivered int      // length of the delivered prefix (consecutive instances)
	d         []string // output sequence
	inD       map[string]bool
}

var _ model.Automaton = (*Log)(nil)

// NewLog returns the Paxos log automaton for process p of n.
func NewLog(p model.ProcID, n int, mode QuorumMode) *Log {
	return &Log{
		self:       p,
		n:          n,
		mode:       mode,
		accepted:   make(map[int]BallotValue),
		promises:   voteSet{seen: make(map[model.ProcID]bool)},
		proposals:  make(map[int]string),
		proposed:   make(map[string]bool),
		nextInst:   1,
		pendingSet: make(map[string]bool),
		votes:      make(map[voteKey]*voteSet),
		chosen:     make(map[int]string),
		chosenIDs:  make(map[string]bool),
		inD:        make(map[string]bool),
	}
}

// LogFactory adapts NewLog to model.AutomatonFactory.
func LogFactory(mode QuorumMode) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return NewLog(p, n, mode) }
}

// Init implements model.Automaton.
func (l *Log) Init(model.Context) {}

// Input implements model.Automaton: model.BroadcastInput is broadcastTOB(m).
func (l *Log) Input(ctx model.Context, in any) {
	b, ok := in.(model.BroadcastInput)
	if !ok {
		return
	}
	ctx.Broadcast(SubmitMsg{ID: b.ID})
}

// Recv implements model.Automaton.
func (l *Log) Recv(ctx model.Context, from model.ProcID, payload any) {
	switch m := payload.(type) {
	case SubmitMsg:
		l.enqueue(m.ID)
	case PrepareMsg:
		l.observeBallot(m.Ballot)
		if m.Ballot > l.promised {
			l.promised = m.Ballot
			acc := make(map[int]BallotValue, len(l.accepted))
			for i, bv := range l.accepted {
				acc[i] = bv
			}
			ctx.Send(from, PromiseMsg{Ballot: m.Ballot, Accepted: acc})
		}
	case PromiseMsg:
		l.onPromise(ctx, from, m)
	case AcceptMsg:
		l.observeBallot(m.Ballot)
		if m.Ballot >= l.promised {
			l.promised = m.Ballot
			l.accepted[m.Instance] = BallotValue{Ballot: m.Ballot, Value: m.Value}
			ctx.Broadcast(AcceptedMsg{Ballot: m.Ballot, Instance: m.Instance, Value: m.Value})
		}
	case AcceptedMsg:
		l.onAccepted(ctx, from, m)
	}
}

// Tick implements model.Automaton: leadership management and retransmission.
func (l *Log) Tick(ctx model.Context) {
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok || leader != l.self {
		// Abdicate: stop proposing (acceptor/learner roles continue).
		l.ballot = 0
		l.leading = false
		return
	}
	if l.ballot == 0 {
		// Start phase 1 with a fresh ballot above everything seen.
		l.ballot = l.nextBallot()
		l.leading = false
		l.promises = voteSet{seen: make(map[model.ProcID]bool)}
		ctx.Broadcast(PrepareMsg{Ballot: l.ballot})
		return
	}
	if !l.leading {
		ctx.Broadcast(PrepareMsg{Ballot: l.ballot}) // retransmit phase 1
		return
	}
	l.proposePending(ctx)
	// Retransmit phase 2 for instances not yet chosen.
	l.broadcastOpenProposals(ctx)
}

// broadcastOpenProposals re-sends AcceptMsg for every proposed-but-unchosen
// instance, in instance order: iterating l.proposals directly would emit
// messages in Go's randomized map order and break seed-stable traces.
func (l *Log) broadcastOpenProposals(ctx model.Context) {
	for _, inst := range slices.Sorted(maps.Keys(l.proposals)) {
		if _, done := l.chosen[inst]; !done {
			ctx.Broadcast(AcceptMsg{Ballot: l.ballot, Instance: inst, Value: l.proposals[inst]})
		}
	}
}

func (l *Log) enqueue(id string) {
	if l.pendingSet[id] || l.chosenIDs[id] {
		return
	}
	l.pendingSet[id] = true
	l.pending = append(l.pending, id)
}

func (l *Log) observeBallot(b int64) {
	if b > l.maxBallot {
		l.maxBallot = b
	}
}

// nextBallot returns a ballot above every ballot seen, unique to this
// process: ballots are round*n + (self-1).
func (l *Log) nextBallot() int64 {
	round := l.maxBallot/int64(l.n) + 1
	b := round*int64(l.n) + int64(l.self-1)
	l.observeBallot(b)
	return b
}

func (l *Log) onPromise(ctx model.Context, from model.ProcID, m PromiseMsg) {
	if m.Ballot != l.ballot || l.ballot == 0 || l.leading {
		if l.leading && m.Ballot == l.ballot {
			return // late promise, already leading
		}
		if m.Ballot != l.ballot {
			return
		}
	}
	l.promises.add(from)
	// Merge accepted values: for each instance keep the highest-ballot value.
	for inst, bv := range m.Accepted {
		cur, ok := l.accepted[inst]
		if !ok || bv.Ballot > cur.Ballot {
			l.accepted[inst] = bv
		}
	}
	if !l.quorumReached(ctx, &l.promises) {
		return
	}
	l.leading = true
	// Re-propose every accepted-but-unchosen instance under our ballot
	// (Paxos's "value with the highest ballot" rule, applied per instance).
	// Sorted so the send order below is seed-stable, not map order.
	for _, inst := range slices.Sorted(maps.Keys(l.accepted)) {
		if _, done := l.chosen[inst]; done {
			continue
		}
		bv := l.accepted[inst]
		l.proposals[inst] = bv.Value
		l.proposed[bv.Value] = true
		if inst >= l.nextInst {
			l.nextInst = inst + 1
		}
	}
	for inst := range l.chosen {
		if inst >= l.nextInst {
			l.nextInst = inst + 1
		}
	}
	l.proposePending(ctx)
	l.broadcastOpenProposals(ctx)
}

// proposePending assigns fresh instances to pending client IDs.
func (l *Log) proposePending(ctx model.Context) {
	for _, id := range l.pending {
		if l.proposed[id] || l.chosenIDs[id] {
			continue
		}
		inst := l.nextInst
		l.nextInst++
		l.proposals[inst] = id
		l.proposed[id] = true
		ctx.Broadcast(AcceptMsg{Ballot: l.ballot, Instance: inst, Value: id})
	}
}

func (l *Log) onAccepted(ctx model.Context, from model.ProcID, m AcceptedMsg) {
	key := voteKey{instance: m.Instance, ballot: m.Ballot, value: m.Value}
	set := l.votes[key]
	if set == nil {
		set = &voteSet{seen: make(map[model.ProcID]bool, l.n/2+1)}
		l.votes[key] = set
	}
	set.add(from)
	if _, done := l.chosen[m.Instance]; done {
		return
	}
	if !l.quorumReached(ctx, set) {
		return
	}
	l.chosen[m.Instance] = m.Value
	l.chosenIDs[m.Value] = true
	l.deliverPrefix(ctx)
}

// deliverPrefix extends d with consecutively chosen instances. A value chosen
// in two instances (possible across leader changes) is delivered once.
func (l *Log) deliverPrefix(ctx model.Context) {
	changed := false
	for {
		v, ok := l.chosen[l.delivered+1]
		if !ok {
			break
		}
		l.delivered++
		if !l.inD[v] {
			l.inD[v] = true
			l.d = append(l.d, v)
			changed = true
		}
	}
	if changed {
		ctx.Output(model.SeqSnapshot{Seq: append([]string(nil), l.d...)})
	}
}

// quorumReached reports whether the responder set completes a phase under
// the configured quorum mode. The majority test reads the insert-time
// counter (O(1)); the Σ test must re-check the detector's CURRENT quorum
// against the membership set on every delivery — Σ's output is time-varying,
// and liveness in minority environments depends on a later, smaller quorum
// being able to complete a phase with responders gathered earlier.
func (l *Log) quorumReached(ctx model.Context, responders *voteSet) bool {
	switch l.mode {
	case MajorityQuorums:
		return responders.count > l.n/2
	case SigmaQuorums:
		q, ok := fd.QuorumOf(ctx.FD())
		if !ok {
			return false
		}
		if len(q) == 0 {
			return false
		}
		for _, p := range q {
			if !responders.seen[p] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Delivered returns a copy of the current output sequence d_i.
func (l *Log) Delivered() []string { return append([]string(nil), l.d...) }

// ChosenInstances returns the chosen instance numbers in sorted order.
func (l *Log) ChosenInstances() []int {
	out := make([]int, 0, len(l.chosen))
	for i := range l.chosen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Leading reports whether this process currently leads a completed phase 1.
func (l *Log) Leading() bool { return l.leading }
