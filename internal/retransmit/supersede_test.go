package retransmit_test

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/sim/adversary"
)

// latest is a payload that makes its sender's previous one obsolete, like
// etob.PromoteMsg.
type latest struct{ ID string }

func (latest) SupersedesPrevious() {}

// latestAuto broadcasts every input as a latest payload and counts receipts.
type latestAuto struct {
	self   model.ProcID
	counts recvCount
}

func (a *latestAuto) Init(model.Context)              {}
func (a *latestAuto) Tick(model.Context)              {}
func (a *latestAuto) Input(ctx model.Context, in any) { ctx.Broadcast(latest{ID: in.(string)}) }
func (a *latestAuto) Recv(_ model.Context, _ model.ProcID, payload any) {
	if a.counts[a.self] == nil {
		a.counts[a.self] = map[string]int{}
	}
	a.counts[a.self][payload.(latest).ID]++
}

// TestSupersedingStreamOverLossy: each process broadcasts a stream of
// superseding payloads, one per tick, over a bursty lossy network. Each
// link's last payload must arrive, none twice; a sender never holds more
// than one pending envelope per link; and once the run settles the
// receivers' dedup state has compacted over every superseded seq.
func TestSupersedingStreamOverLossy(t *testing.T) {
	const n, perSender = 3, 30
	for seed := int64(1); seed <= 10; seed++ {
		counts := make(recvCount)
		fp := model.NewFailurePattern(n)
		k := sim.New(fp, fd.NewOmegaStable(fp, 1),
			retransmit.Wrap(func(p model.ProcID, _ int) model.Automaton {
				return &latestAuto{self: p, counts: counts}
			}, retransmit.Options{Seed: seed}),
			sim.Options{
				Seed:    seed,
				Network: func() sim.NetworkModel { return &adversary.Lossy{Drop: 0.3, Burst: 3} },
			})
		for _, p := range model.Procs(n) {
			for i := 0; i < perSender; i++ {
				k.ScheduleInput(p, model.Time(50+5*i+int(p)), fmt.Sprintf("%v-%d", p, i))
			}
		}
		maxPending := 0
		k.RunUntil(30000, func(k *sim.Kernel) bool {
			for _, p := range model.Procs(n) {
				maxPending = max(maxPending, k.Automaton(p).(*retransmit.Automaton).PendingEnvelopes())
			}
			return false
		})

		if k.MessagesLost() == 0 {
			t.Fatalf("seed %d: no losses — the network exercised nothing", seed)
		}
		if maxPending > n {
			t.Errorf("seed %d: a sender held %d pending envelopes, want at most one per link (%d)", seed, maxPending, n)
		}
		var superseded int64
		for _, q := range model.Procs(n) {
			a := k.Automaton(q).(*retransmit.Automaton)
			superseded += a.Superseded()
			if s := a.DedupSparse(); s != 0 {
				t.Errorf("seed %d: %v holds %d sparse dedup entries after settling, want 0", seed, q, s)
			}
			if pend := a.PendingEnvelopes(); pend != 0 {
				t.Errorf("seed %d: %v still has %d unacked envelopes", seed, q, pend)
			}
			for id, c := range counts[q] {
				if c > 1 {
					t.Errorf("seed %d: %v received %q %d times", seed, q, id, c)
				}
			}
			for _, p := range model.Procs(n) {
				if last := fmt.Sprintf("%v-%d", p, perSender-1); counts[q][last] != 1 {
					t.Errorf("seed %d: %v received %v's last payload %d times, want 1", seed, q, p, counts[q][last])
				}
			}
		}
		if superseded == 0 {
			t.Errorf("seed %d: a payload per tick superseded nothing", seed)
		}
	}
}
