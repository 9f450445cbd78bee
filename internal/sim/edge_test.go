package sim

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
)

func TestInputToCrashedProcessIgnored(t *testing.T) {
	fp := model.NewFailurePattern(2)
	fp.Crash(2, 0)
	det := fd.NewOmegaStable(fp, 1)
	obs := &countObs{}
	k := New(fp, det, echoFactory(), Options{Seed: 1})
	k.SetObserver(obs)
	k.ScheduleInput(2, 50, "go") // crashed: must not execute
	k.Run(500)
	a2 := k.Automaton(2).(*echoAuto)
	if len(a2.received) != 0 || a2.sent {
		t.Fatal("crashed process executed steps")
	}
	// Observer OnInput is only fired for executed inputs.
	if obs.inputs != 0 {
		t.Fatalf("inputs = %d, want 0", obs.inputs)
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	fp := model.NewFailurePattern(2)
	det := fd.NewOmegaStable(fp, 1)
	k := New(fp, det, echoFactory(), Options{Seed: 1})
	k.Run(300)
	// echoAuto broadcasts "hello" once; each process must receive its own.
	a1 := k.Automaton(1).(*echoAuto)
	selfHello := 0
	for _, m := range a1.received {
		if m == "hello" {
			selfHello++
		}
	}
	if selfHello != 2 { // one from itself, one from the peer
		t.Fatalf("p1 received %d hellos, want 2 (self + peer)", selfHello)
	}
}

func TestOutputOutsideStepPanics(t *testing.T) {
	fp := model.NewFailurePattern(2)
	det := fd.NewOmegaStable(fp, 1)
	var leaked model.Context
	k := New(fp, det, func(p model.ProcID, n int) model.Automaton {
		return &ctxLeaker{&leaked}
	}, Options{Seed: 1})
	k.Run(10)
	if leaked == nil {
		t.Fatal("no step executed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Send on a finished step context must panic")
		}
	}()
	leaked.Send(1, "late")
}

// ctxLeaker stores its step context so the test can misuse it after the step.
type ctxLeaker struct{ out *model.Context }

func (c *ctxLeaker) Init(ctx model.Context)                { *c.out = ctx }
func (c *ctxLeaker) Tick(model.Context)                    {}
func (c *ctxLeaker) Recv(model.Context, model.ProcID, any) {}
func (c *ctxLeaker) Input(model.Context, any)              {}

func TestLinksAreNotFIFO(t *testing.T) {
	// With a wide delay spread, two messages sent back-to-back on one link
	// can arrive reordered — the model property that motivated the ETOB
	// promote counters (a stale promote must never shrink d_i).
	reordered := false
	for seed := int64(1); seed <= 20 && !reordered; seed++ {
		fp := model.NewFailurePattern(2)
		det := fd.NewOmegaStable(fp, 1)
		var order []string
		k := New(fp, det, func(p model.ProcID, n int) model.Automaton {
			return &seqSender{order: &order}
		}, Options{Seed: seed, MinDelay: 1, MaxDelay: 100})
		k.ScheduleInput(1, 10, "send")
		k.Run(1000)
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				reordered = true
			}
		}
	}
	if !reordered {
		t.Fatal("no reordering across 20 seeds — links unexpectedly FIFO")
	}
}

// seqSender: on input, p1 sends "a".."e" to p2 in one step; p2 records the
// arrival order.
type seqSender struct{ order *[]string }

func (s *seqSender) Init(model.Context) {}
func (s *seqSender) Tick(model.Context) {}
func (s *seqSender) Input(ctx model.Context, _ any) {
	for _, m := range []string{"a", "b", "c", "d", "e"} {
		ctx.Send(2, m)
	}
}
func (s *seqSender) Recv(_ model.Context, _ model.ProcID, payload any) {
	if str, ok := payload.(string); ok {
		*s.order = append(*s.order, str)
	}
}
