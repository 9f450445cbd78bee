package retransmit

import (
	"testing"

	"repro/internal/model"
)

// handCtx is a step context for driving p1 of a two-process wrapped system
// by hand: it records what the wrapper puts on the wire.
type handCtx struct {
	now  model.Time
	sent []any
}

func (c *handCtx) Self() model.ProcID         { return 1 }
func (c *handCtx) N() int                     { return 2 }
func (c *handCtx) Now() model.Time            { return c.now }
func (c *handCtx) FD() any                    { return nil }
func (c *handCtx) Output(any)                 {}
func (c *handCtx) Send(_ model.ProcID, m any) { c.sent = append(c.sent, m) }
func (c *handCtx) Broadcast(m any)            { c.Send(0, m) }
func (c *handCtx) lastData() Data             { return c.sent[len(c.sent)-1].(Data) }

// toP2 is the inner protocol: every input is sent to p2.
type toP2 struct{}

func (toP2) Init(model.Context)                     {}
func (toP2) Tick(model.Context)                     {}
func (toP2) Recv(model.Context, model.ProcID, any)  {}
func (toP2) Input(ctx model.Context, in any)        { ctx.Send(2, in) }
func toP2Factory(model.ProcID, int) model.Automaton { return toP2{} }

// handDriven boots p1 with the default schedule (RTO 3, MaxRTO 48).
func handDriven() (*Automaton, *handCtx) {
	a := Wrap(toP2Factory, Options{Seed: 1})(1, 2).(*Automaton)
	c := &handCtx{}
	a.Init(c)
	return a, c
}

// roundTrip sends one payload to p2, ticks `after` times, then delivers p2's
// ack, and returns how many resends happened meanwhile.
func (c *handCtx) roundTrip(t *testing.T, a *Automaton, payload any, after int) int64 {
	t.Helper()
	before := a.Resends()
	a.Input(c, payload)
	d := c.lastData()
	for i := 0; i < after; i++ {
		a.Tick(c)
	}
	a.Recv(c, 2, Ack{Epoch: d.Epoch, Seq: d.Seq})
	return a.Resends() - before
}

// TestRTTEstimatorKarnsRule: an ack of a resent envelope gives no sample, so
// once a link is measured it moves neither SRTT/RTTVAR nor the learned
// timeout; before the first sample it leaves the link at the backed-off
// timeout it was acked under (Karn's timer backoff) and still samples
// nothing.
func TestRTTEstimatorKarnsRule(t *testing.T) {
	a, c := handDriven()
	if got := c.roundTrip(t, a, "slow", 8); got != 1 {
		t.Fatalf("8-tick round trip at RTO 3: %d resends, want 1", got)
	}
	if e := a.rtt[1]; e.sampled || e.srtt8 != 0 || e.rttvar4 != 0 {
		t.Fatalf("ack of a resent envelope was sampled: %+v", e)
	}
	if got := a.LearnedRTO(); got != 6 {
		t.Fatalf("unmeasured link after one resend: learned RTO %d, want the backed-off 6", got)
	}

	// The first valid sample (2 ticks) replaces the kept timeout:
	// SRTT 2, RTTVAR 1, RTO = 2 + 4·1 = 6.
	if got := c.roundTrip(t, a, "fast", 2); got != 0 {
		t.Fatalf("2-tick round trip resent %d times", got)
	}
	want := a.rtt[1]
	if !want.sampled || want.srtt8 != 16 || want.rttvar4 != 4 || a.LearnedRTO() != 6 {
		t.Fatalf("after one 2-tick sample: %+v (learned %d), want srtt8 16, rttvar4 4, RTO 6", want, a.LearnedRTO())
	}

	// The floor holds the first resend back for the learned 6 ticks, and an
	// envelope acked only after resends moves nothing on the measured link.
	before := a.Resends()
	a.Input(c, "lost")
	d := c.lastData()
	for i := 1; i <= 40; i++ {
		if a.Tick(c); i < 6 && a.Resends() != before {
			t.Fatalf("resent at tick %d, within the learned 6-tick floor", i)
		}
	}
	if a.Resends() == before {
		t.Fatal("40 ticks without an ack produced no resend")
	}
	a.Recv(c, 2, Ack{Epoch: d.Epoch, Seq: d.Seq})
	if got := a.rtt[1]; got.srtt8 != want.srtt8 || got.rttvar4 != want.rttvar4 || got.rto != want.rto {
		t.Fatalf("ack of a resent envelope moved the estimate: %+v, want %+v", got, want)
	}
}

// TestRTTEstimatorZeroTickSample: an ack inside the tick that sent the data
// (live loopback at 2 ms ticks) is a valid sample of 0 ticks. It counts —
// later samples fold into it — and the floor stays in force.
func TestRTTEstimatorZeroTickSample(t *testing.T) {
	a, c := handDriven()
	c.roundTrip(t, a, "x", 0)
	if e := a.rtt[1]; !e.sampled || e.srtt8 != 0 || e.rttvar4 != 0 {
		t.Fatalf("0-tick ack: %+v, want a sample of 0", e)
	}
	if got := a.LearnedRTO(); got != 3 {
		t.Fatalf("learned RTO %d after a 0-tick sample, want the floor 3", got)
	}
	// A 2-tick sample folds into the first (SRTT 0.25, RTTVAR 0.5, RTO 2,
	// floored to 3); had the 0 not counted, it would have set RTO 6.
	c.roundTrip(t, a, "y", 2)
	if e := a.rtt[1]; e.srtt8 != 2 || e.rttvar4 != 2 || a.LearnedRTO() != 3 {
		t.Fatalf("after samples 0 and 2: %+v (learned %d), want srtt8 2, rttvar4 2, RTO 3", e, a.LearnedRTO())
	}
}

// TestRTTEstimatorResetsOnRestart: a new incarnation (new epoch) starts with
// unmeasured links, and acks addressed to the old epoch sample nothing.
func TestRTTEstimatorResetsOnRestart(t *testing.T) {
	a, c := handDriven()
	for _, r := range []int{4, 4, 4} {
		c.roundTrip(t, a, "x", r)
	}
	if got := a.LearnedRTO(); got <= 3 {
		t.Fatalf("learned RTO %d after 4-tick samples, want above the floor", got)
	}
	a.Input(c, "in-flight")
	old := c.lastData()

	c.now = 500
	a.Init(c)
	if got := a.LearnedRTO(); got != 3 || a.rtt[1].sampled {
		t.Fatalf("after restart: learned RTO %d, estimator %+v; want 3 and unmeasured", got, a.rtt[1])
	}
	a.Recv(c, 2, Ack{Epoch: old.Epoch, Seq: old.Seq})
	if a.rtt[1].sampled {
		t.Fatal("an ack addressed to the previous epoch was sampled")
	}
}

// quietP2 is toP2 as a model.Waker with no tick of its own ever due.
type quietP2 struct{ toP2 }

func (quietP2) IdleTicks(any) int64 { return -1 }

// TestIdleTicksPredictsResends pins IdleTicks against the resend schedule:
// over a never-acked envelope's backoff, a tick resends exactly when the
// previous IdleTicks answer was 0. Once acked, the envelope no longer makes
// any tick due, and a wrapped automaton that is not a Waker has every tick
// due.
func TestIdleTicksPredictsResends(t *testing.T) {
	a := Wrap(func(model.ProcID, int) model.Automaton { return quietP2{} }, Options{Seed: 1})(1, 2).(*Automaton)
	c := &handCtx{}
	a.Init(c)
	if k := a.IdleTicks(nil); k != -1 {
		t.Fatalf("nothing pending: IdleTicks = %d, want -1", k)
	}
	a.Input(c, "lost")
	d := c.lastData()
	for i := 1; i <= 200; i++ {
		k, before := a.IdleTicks(nil), a.Resends()
		a.Tick(c)
		if resent := a.Resends() > before; resent != (k == 0) {
			t.Fatalf("tick %d: IdleTicks said %d, but resent=%v", i, k, resent)
		}
	}
	if a.Resends() < 4 {
		t.Fatalf("%d resends in 200 ticks: the schedule was barely exercised", a.Resends())
	}
	a.Recv(c, 2, Ack{Epoch: d.Epoch, Seq: d.Seq})
	if k := a.IdleTicks(nil); k != -1 {
		t.Fatalf("acked: IdleTicks = %d, want -1", k)
	}

	b, bc := handDriven()
	if k := b.IdleTicks(nil); k != 0 {
		t.Fatalf("inner automaton not a Waker: IdleTicks = %d, want 0", k)
	}
	b.Input(bc, "x")
	if k := b.IdleTicks(nil); k != 0 {
		t.Fatalf("inner automaton not a Waker, envelope pending: IdleTicks = %d, want 0", k)
	}
}
