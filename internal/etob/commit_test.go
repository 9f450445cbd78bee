package etob

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// commitObserver records CommitOutput events per process, each stamped with
// the time it was output.
type commitObserver struct {
	sim.NopObserver
	mu      sync.Mutex
	commits map[model.ProcID][]stampedCommit
}

type stampedCommit struct {
	At model.Time
	CommitOutput
}

func newCommitObserver() *commitObserver {
	return &commitObserver{commits: make(map[model.ProcID][]stampedCommit)}
}

func (o *commitObserver) OnOutput(p model.ProcID, t model.Time, v any) {
	if c, ok := v.(CommitOutput); ok {
		o.mu.Lock()
		o.commits[p] = append(o.commits[p], stampedCommit{At: t, CommitOutput: c})
		o.mu.Unlock()
	}
}

func TestCommitIndicationsStableLeader(t *testing.T) {
	// Stable leader: indications appear and every later indication extends
	// every earlier one (at each process, and across processes).
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	obs := newCommitObserver()
	k := sim.New(fp, det, CommitFactory(), sim.Options{Seed: 21})
	k.SetObserver(obs)
	var ids []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("m%d", i)
		ids = append(ids, id)
		k.ScheduleInput(model.ProcID(i%3+1), model.Time(20+30*i), model.BroadcastInput{ID: id})
	}
	k.Run(5000)

	for _, p := range fp.Correct() {
		cs := obs.commits[p]
		if len(cs) == 0 {
			t.Fatalf("%v produced no commit indications", p)
		}
		for i := 1; i < len(cs); i++ {
			if !prefixOf(cs[i-1].Prefix, cs[i].Prefix) {
				t.Fatalf("%v: indication %d does not extend %d: %v vs %v", p, i, i-1, cs[i-1].Prefix, cs[i].Prefix)
			}
		}
		final := cs[len(cs)-1].Prefix
		if len(final) != len(ids) {
			t.Errorf("%v final committed prefix has %d entries, want %d", p, len(final), len(ids))
		}
	}
	// Cross-process: the longest committed prefixes must be order-consistent.
	a := obs.commits[1][len(obs.commits[1])-1].Prefix
	b := obs.commits[2][len(obs.commits[2])-1].Prefix
	short := a
	if len(b) < len(a) {
		short = b
	}
	for i := range short {
		if a[i] != b[i] {
			t.Fatalf("committed prefixes disagree at %d: %v vs %v", i, a, b)
		}
	}
}

func TestCommitIndicationsStableAfterOmegaStabilizes(t *testing.T) {
	// The paper's soundness condition: indications produced AFTER Ω's
	// stabilization are never invalidated — the indicated prefix stays a
	// prefix of every later delivered sequence.
	const stabilized = 1500
	fp := model.NewFailurePattern(4)
	det := fd.NewOmegaSplit(fp, 2, 1, 1, stabilized)
	obs := newCommitObserver()
	rec := trace.NewRecorder(4)
	multi := multiObserver{obs, rec}
	k := sim.New(fp, det, CommitFactory(), sim.Options{Seed: 5})
	k.SetObserver(multi)
	for i := 0; i < 6; i++ {
		k.ScheduleInput(model.ProcID(i%4+1), model.Time(20+2*i), model.BroadcastInput{ID: fmt.Sprintf("x%d", i)})
	}
	k.Run(12000)

	// Every indication a correct process makes from Ω's stabilization on
	// is a prefix of its final d_i: none is contradicted later.
	checked := 0
	for _, p := range fp.Correct() {
		final := rec.FinalSeq(p)
		for _, c := range obs.commits[p] {
			if c.At < stabilized {
				continue
			}
			checked++
			if !prefixOf(c.Prefix, final) {
				t.Errorf("%v: indication %v at t=%d not a prefix of final %v", p, c.Prefix, c.At, final)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no indication made after Ω stabilized: the check checked nothing")
	}
}

func TestCommitRequiresMajorityAlive(t *testing.T) {
	// With only 1 of 3 alive there is no majority of ackers: no indications.
	fp := model.NewFailurePattern(3)
	fp.Crash(2, 0)
	fp.Crash(3, 0)
	det := fd.NewOmegaStable(fp, 1)
	obs := newCommitObserver()
	k := sim.New(fp, det, CommitFactory(), sim.Options{Seed: 9})
	k.SetObserver(obs)
	k.ScheduleInput(1, 20, model.BroadcastInput{ID: "solo"})
	k.Run(4000)
	if len(obs.commits[1]) != 0 {
		t.Fatalf("no majority alive, yet indications appeared: %+v", obs.commits[1])
	}
	// The message is still DELIVERED (eventual consistency needs no
	// majority) — only the commit indication is withheld.
	a := k.Automaton(1).(*CommitAutomaton)
	if got := a.Delivered(); len(got) != 1 {
		t.Fatalf("delivery must not need a majority: %v", got)
	}
	if a.Committed() != 0 {
		t.Fatal("Committed() must be 0")
	}
}

// multiObserver fans events out to several observers.
type multiObserver []sim.Observer

func (m multiObserver) OnSend(t model.Time, msg sim.Message) {
	for _, o := range m {
		o.OnSend(t, msg)
	}
}
func (m multiObserver) OnDeliver(t model.Time, msg sim.Message) {
	for _, o := range m {
		o.OnDeliver(t, msg)
	}
}
func (m multiObserver) OnOutput(p model.ProcID, t model.Time, v any) {
	for _, o := range m {
		o.OnOutput(p, t, v)
	}
}
func (m multiObserver) OnInput(p model.ProcID, t model.Time, v any) {
	for _, o := range m {
		o.OnInput(p, t, v)
	}
}

func prefixOf(pre, full []string) bool {
	if len(pre) > len(full) {
		return false
	}
	for i := range pre {
		if pre[i] != full[i] {
			return false
		}
	}
	return true
}
