package consensus

import (
	"maps"
	"slices"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/transform"
)

// Sequence is a sequence of independent single-decree Paxos instances exposed
// through the ECProtocol shape (Propose + model.Decision outputs): consensus
// instance ℓ answers proposeC_ℓ. Unlike eventual consensus, agreement holds
// for EVERY instance (k = 1) — this is the strong primitive that classical
// total order broadcast is built from [Chandra–Toueg 96], used as the
// baseline against the paper's eventual abstractions.
//
// Liveness requires Ω plus quorums: majority quorums (live only in the
// majority environment) or Σ quorums (live in any environment — but then the
// full detector is Ω+Σ, which is exactly the paper's point).
type Sequence struct {
	self model.ProcID
	n    int
	mode QuorumMode

	insts     map[int]*seqInst
	proposals map[int]string // our own pending proposal per instance
	decided   map[int]bool   // instances already responded to
	maxBallot int64
}

// seqInst is the per-instance Paxos state (acceptor + proposer + learner).
type seqInst struct {
	// Acceptor.
	promised int64
	accepted BallotValue // Ballot 0 = none

	// Proposer (only used while we consider ourselves leader).
	ballot   int64
	leading  bool
	promises map[model.ProcID]BallotValue // promise senders → their accepted pair

	// Learner.
	votes  map[voteKey]map[model.ProcID]bool
	chosen string
	done   bool
}

// SeqPrepareMsg is phase 1a for one instance.
type SeqPrepareMsg struct {
	Instance int
	Ballot   int64
}

// SeqPromiseMsg is phase 1b for one instance.
type SeqPromiseMsg struct {
	Instance int
	Ballot   int64
	Accepted BallotValue
}

// SeqAcceptMsg is phase 2a for one instance.
type SeqAcceptMsg struct {
	Instance int
	Ballot   int64
	Value    string
}

// SeqAcceptedMsg is phase 2b for one instance, broadcast to all learners.
type SeqAcceptedMsg struct {
	Instance int
	Ballot   int64
	Value    string
}

var _ model.Automaton = (*Sequence)(nil)

// NewSequence returns the consensus-sequence automaton for process p of n.
func NewSequence(p model.ProcID, n int, mode QuorumMode) *Sequence {
	return &Sequence{
		self:      p,
		n:         n,
		mode:      mode,
		insts:     make(map[int]*seqInst),
		proposals: make(map[int]string),
		decided:   make(map[int]bool),
	}
}

// SequenceFactory adapts NewSequence to model.AutomatonFactory.
func SequenceFactory(mode QuorumMode) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return NewSequence(p, n, mode) }
}

// TOBFactory returns the textbook batch-based total order broadcast
// [Chandra–Toueg 96]: processes repeatedly agree, via consensus instances, on
// the next batch of messages to deliver. It is the paper's own Algorithm 1
// (T_EC→ETOB) over a strong Sequence with the given quorum mode; since the
// sequence agrees from instance 1, the broadcast satisfies the strong TOB
// specification (τ = 0).
func TOBFactory(mode QuorumMode) model.AutomatonFactory {
	return transform.ECToETOBFactory(func(p model.ProcID, n int) transform.ECProtocol {
		return NewSequence(p, n, mode)
	})
}

func (s *Sequence) inst(i int) *seqInst {
	in, ok := s.insts[i]
	if !ok {
		in = &seqInst{
			promises: make(map[model.ProcID]BallotValue),
			votes:    make(map[voteKey]map[model.ProcID]bool),
		}
		s.insts[i] = in
	}
	return in
}

// Init implements model.Automaton.
func (s *Sequence) Init(model.Context) {}

// Input implements model.Automaton: model.ProposeInput is proposeC_ℓ(v).
func (s *Sequence) Input(ctx model.Context, in any) {
	pi, ok := in.(model.ProposeInput)
	if !ok {
		return
	}
	s.Propose(ctx, pi.Instance, pi.Value)
}

// Propose registers proposal v for instance ℓ. If the instance is already
// chosen, the response is emitted immediately.
func (s *Sequence) Propose(ctx model.Context, instance int, value string) {
	s.proposals[instance] = value
	if in := s.inst(instance); in.done {
		s.respond(ctx, instance, in.chosen)
	}
}

func (s *Sequence) respond(ctx model.Context, instance int, v string) {
	if s.decided[instance] {
		return
	}
	s.decided[instance] = true
	ctx.Output(model.Decision{Instance: instance, Value: v})
}

// Recv implements model.Automaton.
func (s *Sequence) Recv(ctx model.Context, from model.ProcID, payload any) {
	switch m := payload.(type) {
	case SeqPrepareMsg:
		s.observe(m.Ballot)
		in := s.inst(m.Instance)
		if m.Ballot > in.promised {
			in.promised = m.Ballot
			ctx.Send(from, SeqPromiseMsg{Instance: m.Instance, Ballot: m.Ballot, Accepted: in.accepted})
		}
	case SeqPromiseMsg:
		s.onPromise(ctx, from, m)
	case SeqAcceptMsg:
		s.observe(m.Ballot)
		in := s.inst(m.Instance)
		if m.Ballot >= in.promised {
			in.promised = m.Ballot
			in.accepted = BallotValue{Ballot: m.Ballot, Value: m.Value}
			ctx.Broadcast(SeqAcceptedMsg{Instance: m.Instance, Ballot: m.Ballot, Value: m.Value})
		}
	case SeqAcceptedMsg:
		s.onAccepted(ctx, from, m)
	}
}

// Tick implements model.Automaton: leadership and retransmission, per
// undecided instance we have a proposal for.
func (s *Sequence) Tick(ctx model.Context) {
	leader, ok := fd.LeaderOf(ctx.FD())
	if !ok || leader != s.self {
		for _, in := range s.insts {
			in.ballot = 0
			in.leading = false
		}
		return
	}
	// Sorted instance order: each arm below sends, so iterating the map
	// directly would emit messages (and assign ballots) in Go's randomized
	// order and break seed-stable traces.
	for _, instance := range slices.Sorted(maps.Keys(s.proposals)) {
		v := s.proposals[instance]
		in := s.inst(instance)
		if in.done {
			s.respond(ctx, instance, in.chosen)
			continue
		}
		switch {
		case in.ballot == 0:
			in.ballot = s.nextBallot()
			in.leading = false
			in.promises = make(map[model.ProcID]BallotValue)
			ctx.Broadcast(SeqPrepareMsg{Instance: instance, Ballot: in.ballot})
		case !in.leading:
			ctx.Broadcast(SeqPrepareMsg{Instance: instance, Ballot: in.ballot})
		default:
			ctx.Broadcast(SeqAcceptMsg{Instance: instance, Ballot: in.ballot, Value: s.phase2Value(instance, v)})
		}
	}
}

// phase2Value applies Paxos's rule: adopt the accepted value with the
// highest ballot among the promise quorum, else our own proposal.
func (s *Sequence) phase2Value(instance int, own string) string {
	in := s.inst(instance)
	best := BallotValue{}
	for _, bv := range in.promises {
		if bv.Ballot > best.Ballot {
			best = bv
		}
	}
	if best.Ballot > 0 {
		return best.Value
	}
	return own
}

func (s *Sequence) onPromise(ctx model.Context, from model.ProcID, m SeqPromiseMsg) {
	in := s.inst(m.Instance)
	if m.Ballot != in.ballot || in.ballot == 0 {
		return
	}
	in.promises[from] = m.Accepted
	set := make(map[model.ProcID]bool, len(in.promises))
	for p := range in.promises {
		set[p] = true
	}
	if in.leading || !s.quorum(ctx, set) {
		return
	}
	in.leading = true
	if v, ok := s.proposals[m.Instance]; ok && !in.done {
		ctx.Broadcast(SeqAcceptMsg{Instance: m.Instance, Ballot: in.ballot, Value: s.phase2Value(m.Instance, v)})
	}
}

func (s *Sequence) onAccepted(ctx model.Context, from model.ProcID, m SeqAcceptedMsg) {
	in := s.inst(m.Instance)
	key := voteKey{instance: m.Instance, ballot: m.Ballot, value: m.Value}
	set := in.votes[key]
	if set == nil {
		set = make(map[model.ProcID]bool, s.n)
		in.votes[key] = set
	}
	set[from] = true
	if in.done || !s.quorum(ctx, set) {
		return
	}
	in.done = true
	in.chosen = m.Value
	if _, ok := s.proposals[m.Instance]; ok {
		s.respond(ctx, m.Instance, m.Value)
	}
}

func (s *Sequence) observe(b int64) {
	if b > s.maxBallot {
		s.maxBallot = b
	}
}

func (s *Sequence) nextBallot() int64 {
	round := s.maxBallot/int64(s.n) + 1
	b := round*int64(s.n) + int64(s.self-1)
	s.observe(b)
	return b
}

func (s *Sequence) quorum(ctx model.Context, responders map[model.ProcID]bool) bool {
	switch s.mode {
	case MajorityQuorums:
		return len(responders) > s.n/2
	case SigmaQuorums:
		q, ok := fd.QuorumOf(ctx.FD())
		if !ok || len(q) == 0 {
			return false
		}
		for _, p := range q {
			if !responders[p] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Chosen returns the chosen value of an instance, if decided at this process.
func (s *Sequence) Chosen(instance int) (string, bool) {
	in, ok := s.insts[instance]
	if !ok || !in.done {
		return "", false
	}
	return in.chosen, true
}
