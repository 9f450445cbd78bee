package core

import (
	"fmt"
	"testing"

	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/smr"
)

// linkDelays is a loss-free network with one fixed delay per directed link,
// self-links included.
type linkDelays func(from, to model.ProcID) model.Time

func (linkDelays) Reset(int64) {}

func (l linkDelays) Delay(from, to model.ProcID, _ model.Time) (model.Time, bool) {
	return l(from, to), true
}

// TestWriteVisibleTwoStepsAfterBroadcast pins Algorithm 5's two
// communication steps on the deployed Eventual stack: with a stable leader
// p1, a write is in replica q's d_q exactly when its update has crossed the
// writer's link to p1 and p1's promote has crossed p1's link to q. The leader
// promotes in the step that orders the write, so no tick of the leader's
// adds to that; every update below reaches p1 between two of its ticks,
// where a leader that waited for its next tick would show the write up to a
// tick late.
func TestWriteVisibleTwoStepsAfterBroadcast(t *testing.T) {
	const n = 3
	// Distinct delays per direction, 1–7 units: every round trip ends inside
	// retransmit's first 15-unit timeout, so nothing is resent.
	delay := func(from, to model.ProcID) model.Time { return model.Time(2*from + to - 2) }
	fp := model.NewFailurePattern(n)
	factory := ReplicaStackWith(Eventual, StackOptions{Retransmit: &retransmit.Options{Seed: 1}})
	k := sim.New(fp, fd.NewOmegaStable(fp, 1), factory, sim.Options{
		Network: func() sim.NetworkModel { return linkDelays(delay) },
	})
	// p1 ticks at 1 + 5k; these updates reach it at 103, 305 and 503.
	writes := []struct {
		p  model.ProcID
		at model.Time
	}{{2, 100}, {3, 300}, {1, 502}}
	for i, w := range writes {
		k.ScheduleInput(w.p, w.at, smr.Command{Cmd: fmt.Sprintf("set k v%d", i)})
	}

	// visible[q][i] is when d_q first held i+1 writes.
	visible := map[model.ProcID][]model.Time{}
	for now := model.Time(0); now <= 700; now++ {
		k.Run(now)
		for _, q := range model.Procs(n) {
			d := UnwrapReplica(k.Automaton(q)).Inner().(*etob.Automaton).Delivered()
			for len(visible[q]) < len(d) {
				visible[q] = append(visible[q], now)
			}
		}
	}
	for _, q := range model.Procs(n) {
		if len(visible[q]) != len(writes) {
			t.Fatalf("%v delivered %d of %d writes", q, len(visible[q]), len(writes))
		}
		for i, w := range writes {
			if want := w.at + delay(w.p, 1) + delay(1, q); visible[q][i] != want {
				t.Errorf("write %d (at %v, t=%d) visible at %v at t=%d, want %d = %d + %d (update to p1) + %d (promote to %v)",
					i, w.p, w.at, q, visible[q][i], want, w.at, delay(w.p, 1), delay(1, q), q)
			}
		}
	}
}
