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

// msgKinds classifies every message the kernel sends by what it carries.
type msgKinds struct {
	sim.NopObserver
	updateEnv, promoteEnv, acks, rawSelfUpdate, rawPeerUpdate, rawPromote, other int64
}

func (c *msgKinds) OnSend(_ model.Time, m sim.Message) {
	switch p := m.Payload.(type) {
	case retransmit.Data:
		switch p.Payload.(type) {
		case etob.UpdateMsg:
			c.updateEnv++
		case etob.PromoteMsg:
			c.promoteEnv++
		default:
			c.other++
		}
	case retransmit.Ack:
		c.acks++
	case etob.UpdateMsg:
		if m.From == m.To {
			c.rawSelfUpdate++
		} else {
			c.rawPeerUpdate++
		}
	case etob.PromoteMsg:
		c.rawPromote++
	default:
		c.other++
	}
}

// TestCleanRunCostModel pins the message cost of the deployed Eventual stack
// (ETOB under retransmission) on a loss-free network with a stable Ω, by
// kind, at n = 3, 5 and 9. The model: each write costs n−1 update envelopes,
// their n−1 acks and one raw update to the writer itself; each promote
// broadcast costs n raw promotes and no ack, since the leader repeats its
// promote on its own; nothing is resent. Links deliver in 1–4 time units, so
// every round trip ends inside the first 3-tick timeout and the counts are
// exact.
func TestCleanRunCostModel(t *testing.T) {
	const writes = 60
	for _, n := range []int{3, 5, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			fp := model.NewFailurePattern(n)
			factory := ReplicaStackWith(Eventual, StackOptions{Retransmit: &retransmit.Options{Seed: 1}})
			k := sim.New(fp, fd.NewOmegaStable(fp, 1), factory, sim.Options{Seed: 1, MinDelay: 1, MaxDelay: 4})
			kinds := &msgKinds{}
			k.SetObserver(kinds)
			for i := 0; i < writes; i++ {
				k.ScheduleInput(model.ProcID(1+i%n), model.Time(30+6*i), smr.Command{Cmd: fmt.Sprintf("set k%d v%d", i, i)})
			}
			k.Run(model.Time(30+6*writes) + 2000)

			var resends, promotes int64
			for _, p := range model.Procs(n) {
				a := k.Automaton(p).(*retransmit.Automaton)
				resends += a.Resends()
				rep := UnwrapReplica(a)
				promotes += rep.Inner().(*etob.Automaton).PromotesSent()
				if got := rep.AppliedCount(); got != writes {
					t.Fatalf("%v applied %d of %d writes", p, got, writes)
				}
			}
			per := int64(writes * (n - 1))
			for _, c := range []struct {
				kind      string
				got, want int64
			}{
				{"update envelopes", kinds.updateEnv, per},
				{"acks", kinds.acks, per},
				{"raw self updates", kinds.rawSelfUpdate, writes},
				{"raw peer updates", kinds.rawPeerUpdate, 0},
				{"raw promotes", kinds.rawPromote, promotes * int64(n)},
				{"promote envelopes", kinds.promoteEnv, 0},
				{"other messages", kinds.other, 0},
				{"resends", resends, 0},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.kind, c.got, c.want)
				}
			}
			if promotes == 0 {
				t.Error("the leader sent no promote: the model's promote term is vacuous")
			}
			if sent, sum := k.MessagesSent(), kinds.updateEnv+kinds.acks+kinds.rawSelfUpdate+kinds.rawPromote; sent != sum {
				t.Errorf("kernel sent %d messages, the model accounts for %d", sent, sum)
			}
		})
	}
}
