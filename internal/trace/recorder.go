// Package trace records the input and output histories of a run and checks
// the properties that define the paper's abstractions: TOB (Validity,
// No-creation, No-duplication, Agreement, Stability, Total-order,
// Causal-Order), their eventual relaxations ETOB-Stability and
// ETOB-Total-order (both "for some τ ∈ N"), and the eventual consensus
// properties (EC-Termination, EC-Integrity, EC-Validity, EC-Agreement
// "for some k"). The checkers both verify runs in tests and *measure* τ and
// k for the experiment tables.
package trace

import (
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/sim"
)

// SeqPoint is one observation of an output variable d_i: at time T the
// sequence became Seq. Seq is the emitted model.SeqSnapshot.Seq, shared and
// read-only.
type SeqPoint struct {
	T   model.Time
	Seq []string
}

// DecisionPoint is one response DecideEC(Instance, Value) at time T.
type DecisionPoint struct {
	T        model.Time
	Instance int
	Value    string
}

// ProposalPoint is one invocation proposeEC_Instance(Value) by P at time T.
type ProposalPoint struct {
	P        model.ProcID
	T        model.Time
	Instance int
	Value    string
}

// BroadcastPoint is one invocation broadcastETOB(ID, Deps) by Sender at T.
type BroadcastPoint struct {
	ID     string
	Sender model.ProcID
	T      model.Time
	Deps   []string
}

// Recorder collects the histories of a run. It implements sim.Observer and
// is safe for concurrent use (the live runtime records from many goroutines).
type Recorder struct {
	mu sync.Mutex

	n          int
	seqs       map[model.ProcID][]SeqPoint
	decisions  map[model.ProcID][]DecisionPoint
	proposals  []ProposalPoint
	broadcasts map[string]BroadcastPoint
	bcastOrder []string
	leaders    map[model.ProcID][]LeaderPoint

	sends    int64
	delivers int64
}

// LeaderPoint is one observation of an Ω-output variable.
type LeaderPoint struct {
	T      model.Time
	Leader model.ProcID
}

var _ sim.Observer = (*Recorder)(nil)

// NewRecorder returns an empty recorder for an n-process run.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		n:          n,
		seqs:       make(map[model.ProcID][]SeqPoint, n),
		decisions:  make(map[model.ProcID][]DecisionPoint, n),
		broadcasts: make(map[string]BroadcastPoint),
		leaders:    make(map[model.ProcID][]LeaderPoint, n),
	}
}

// OnSend implements sim.Observer.
func (r *Recorder) OnSend(model.Time, sim.Message) {
	r.mu.Lock()
	r.sends++
	r.mu.Unlock()
}

// OnDeliver implements sim.Observer.
func (r *Recorder) OnDeliver(model.Time, sim.Message) {
	r.mu.Lock()
	r.delivers++
	r.mu.Unlock()
}

// OnInput implements sim.Observer: records invocation events.
func (r *Recorder) OnInput(p model.ProcID, t model.Time, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch in := v.(type) {
	case model.BroadcastInput:
		if _, dup := r.broadcasts[in.ID]; !dup {
			r.broadcasts[in.ID] = BroadcastPoint{ID: in.ID, Sender: p, T: t, Deps: append([]string(nil), in.Deps...)}
			r.bcastOrder = append(r.bcastOrder, in.ID)
		}
	case model.ProposeInput:
		r.proposals = append(r.proposals, ProposalPoint{P: p, T: t, Instance: in.Instance, Value: in.Value})
	}
}

// OnOutput implements sim.Observer: records response/output events.
func (r *Recorder) OnOutput(p model.ProcID, t model.Time, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch out := v.(type) {
	case model.SeqSnapshot:
		// Seq is read-only once emitted (model.SeqSnapshot), so the point
		// shares it: a copy per snapshot would make the recorder O(H²).
		r.seqs[p] = append(r.seqs[p], SeqPoint{T: t, Seq: out.Seq})
	case model.Decision:
		r.decisions[p] = append(r.decisions[p], DecisionPoint{T: t, Instance: out.Instance, Value: out.Value})
	case model.ProposeInput:
		// Driven protocols (ec.DrivenFactory, the §3 transformations) announce
		// their self-generated proposals as outputs so that the EC-Validity
		// checker sees the full input history.
		r.proposals = append(r.proposals, ProposalPoint{P: p, T: t, Instance: out.Instance, Value: out.Value})
	case model.BroadcastInput:
		// Protocols that generate broadcast IDs internally (smr.Replica)
		// announce them as outputs; record them like invocation inputs.
		if _, dup := r.broadcasts[out.ID]; !dup {
			r.broadcasts[out.ID] = BroadcastPoint{ID: out.ID, Sender: p, T: t, Deps: append([]string(nil), out.Deps...)}
			r.bcastOrder = append(r.bcastOrder, out.ID)
		}
	case model.LeaderOutput:
		r.leaders[p] = append(r.leaders[p], LeaderPoint{T: t, Leader: out.Leader})
	}
}

// RecordProposal records a proposal directly (used by transformations whose
// inner EC invocations do not pass through a kernel input).
func (r *Recorder) RecordProposal(p model.ProcID, t model.Time, instance int, value string) {
	r.mu.Lock()
	r.proposals = append(r.proposals, ProposalPoint{P: p, T: t, Instance: instance, Value: value})
	r.mu.Unlock()
}

// N returns the number of processes.
func (r *Recorder) N() int { return r.n }

// Sends returns the number of link-level messages sent.
func (r *Recorder) Sends() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sends
}

// Delivers returns the number of link-level messages delivered.
func (r *Recorder) Delivers() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.delivers
}

// Seqs returns the recorded d_i evolution of process p (not copied; treat as
// read-only).
func (r *Recorder) Seqs(p model.ProcID) []SeqPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seqs[p]
}

// FinalSeq returns the last recorded d_i of process p (nil if none).
func (r *Recorder) FinalSeq(p model.ProcID) []string {
	pts := r.Seqs(p)
	if len(pts) == 0 {
		return nil
	}
	return pts[len(pts)-1].Seq
}

// SeqAt returns d_p(t): the last snapshot at or before t (nil if none).
func (r *Recorder) SeqAt(p model.ProcID, t model.Time) []string {
	pts := r.Seqs(p)
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
	if i == 0 {
		return nil
	}
	return pts[i-1].Seq
}

// Decisions returns the decisions of process p in time order.
func (r *Recorder) Decisions(p model.ProcID) []DecisionPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decisions[p]
}

// Proposals returns all recorded proposals.
func (r *Recorder) Proposals() []ProposalPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proposals
}

// Broadcasts returns all broadcast invocations in invocation order.
func (r *Recorder) Broadcasts() []BroadcastPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BroadcastPoint, 0, len(r.bcastOrder))
	for _, id := range r.bcastOrder {
		out = append(out, r.broadcasts[id])
	}
	return out
}

// Broadcast returns the broadcast record for a message ID.
func (r *Recorder) Broadcast(id string) (BroadcastPoint, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.broadcasts[id]
	return b, ok
}

// Leaders returns the Ω-output evolution at p.
func (r *Recorder) Leaders(p model.ProcID) []LeaderPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaders[p]
}

// AllDecided reports whether every listed process has decided all instances
// 1..want — a convenient kernel stop predicate for consensus runs.
func (r *Recorder) AllDecided(procs []model.ProcID, want int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range procs {
		have := make(map[int]bool, want)
		for _, d := range r.decisions[p] {
			have[d.Instance] = true
		}
		for l := 1; l <= want; l++ {
			if !have[l] {
				return false
			}
		}
	}
	return true
}

// AllDelivered reports whether every listed process's current d_i contains
// all the given message IDs — a convenient kernel stop predicate for
// broadcast runs.
func (r *Recorder) AllDelivered(procs []model.ProcID, ids []string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range procs {
		pts := r.seqs[p]
		if len(pts) == 0 {
			return false
		}
		cur := make(map[string]bool, len(pts[len(pts)-1].Seq))
		for _, id := range pts[len(pts)-1].Seq {
			cur[id] = true
		}
		for _, id := range ids {
			if !cur[id] {
				return false
			}
		}
	}
	return true
}

// StableDeliveryTime returns the time at which process p stably delivered
// message id: the first snapshot time after which id is present in every
// later snapshot. Returns (0, false) if id is absent from p's final sequence.
func (r *Recorder) StableDeliveryTime(p model.ProcID, id string) (model.Time, bool) {
	pts := r.Seqs(p)
	if len(pts) == 0 {
		return 0, false
	}
	// Walk backwards: find the last snapshot NOT containing id.
	lastAbsent := -1
	for i := len(pts) - 1; i >= 0; i-- {
		if !contains(pts[i].Seq, id) {
			lastAbsent = i
			break
		}
	}
	if lastAbsent == len(pts)-1 {
		return 0, false // absent at the end: never stably delivered
	}
	return pts[lastAbsent+1].T, true
}

func contains(seq []string, id string) bool {
	for _, x := range seq {
		if x == id {
			return true
		}
	}
	return false
}
