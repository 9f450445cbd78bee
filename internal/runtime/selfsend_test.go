package runtime

import (
	"testing"
	"time"

	"repro/internal/model"
)

// selfCounter sends itself one numbered message per tick, `total` in all,
// and records the numbers it receives back in order.
type selfCounter struct {
	sent, total int
	got         []int
}

type selfNote struct{ I int }

func (a *selfCounter) Init(model.Context)       {}
func (a *selfCounter) Input(model.Context, any) {}
func (a *selfCounter) Tick(ctx model.Context) {
	if a.sent < a.total {
		a.sent++
		ctx.Send(ctx.Self(), selfNote{I: a.sent})
	}
}
func (a *selfCounter) Recv(_ model.Context, _ model.ProcID, payload any) {
	if m, ok := payload.(selfNote); ok {
		a.got = append(a.got, m.I)
	}
}

// TestSelfSendsSurviveInboxOverflow: p2 floods p1's 2-frame inbox with peer
// frames on every tick, so the transport drops frames to p1, yet every
// message p1 sends itself reaches its automaton, once and in order. A
// self-send is local memory, as lossless as the kernel's self-link: it never
// competes with peer frames for inbox space.
func TestSelfSendsSurviveInboxOverflow(t *testing.T) {
	const total = 200
	flood := floodFactory()
	c := NewCluster(2, func(p model.ProcID, n int) model.Automaton {
		if p == 1 {
			return &selfCounter{total: total}
		}
		return flood(p, n)
	}, Options{InboxSize: 2, TickInterval: time.Millisecond, LeaderTimeout: 500 * time.Millisecond})
	defer c.Stop()

	var sent int
	var got []int
	inspect := func() {
		c.Inspect(1, func(a model.Automaton) {
			sc := a.(*selfCounter)
			sent, got = sc.sent, append(got[:0], sc.got...)
		})
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if inspect(); sent == total && len(got) == total {
			break
		}
	}
	if sent != total || len(got) != total {
		t.Fatalf("p1 sent itself %d of %d messages and received %d", sent, total, len(got))
	}
	if c.Proc(1).Transport().Dropped() == 0 {
		t.Fatal("p1's inbox never overflowed: the flood exercised nothing")
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("self-send %d arrived as %d (got %v)", i+1, v, got)
		}
	}
}
