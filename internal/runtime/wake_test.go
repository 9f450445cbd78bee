package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/trace"
)

// The event loop wakes only for due work: the tests below count timer
// wake-ups (Proc.Wakeups) on quiet clusters, and check that what is due —
// a keepalive, a resend, every tick of an automaton that is not a Waker, the
// tick that clears a lost leadership — still runs on time.

// replicaStack is the deployed Eventual stack: retransmission around a
// replica around ETOB.
func replicaStack() model.AutomatonFactory {
	return retransmit.Wrap(smr.ReplicaFactory(etob.Factory(), smr.KVFactory), retransmit.Options{Seed: 1})
}

// etobOf unwraps the ETOB automaton of a replicaStack process.
func etobOf(a model.Automaton) *etob.Automaton {
	return a.(*retransmit.Automaton).Inner().(*smr.Replica).Inner().(*etob.Automaton)
}

// idleStackWakes runs a 3-process replicaStack cluster with no client for
// window after Ω settles, and returns each process's timer wake-ups and
// promote broadcasts in that window.
func idleStackWakes(t *testing.T, opts Options, window time.Duration) (wakes, promotes []int64) {
	t.Helper()
	const n = 3
	procs, _ := omegaCluster(t, n, replicaStack(), opts, 0)
	waitLeader(t, 5*time.Second, procs, 1)
	time.Sleep(opts.LeaderTimeout / 2)
	counts := func() (w, pr []int64) {
		for _, p := range procs {
			var sent int64
			p.Inspect(func(a model.Automaton) { sent = etobOf(a).PromotesSent() })
			w = append(w, p.Wakeups())
			pr = append(pr, sent)
		}
		return w, pr
	}
	w0, p0 := counts()
	time.Sleep(window)
	w1, p1 := counts()
	for i := range procs {
		wakes = append(wakes, w1[i]-w0[i])
		promotes = append(promotes, p1[i]-p0[i])
	}
	t.Logf("wake-ups per process in %v: %v; promotes: %v", window, wakes, promotes)
	return wakes, promotes
}

// An idle follower's ticks are never due: it wakes for its beats to the
// leader, one per half window of silence on that link, and for nothing else,
// not once per tick.
func TestIdleFollowerTakesNoTickWakeups(t *testing.T) {
	const tick = 2 * time.Millisecond
	const timeout = 100 * time.Millisecond
	const window = time.Second
	wakes, _ := idleStackWakes(t, Options{TickInterval: tick, LeaderTimeout: timeout}, window)
	beats := int64(window / (timeout / 2))
	for i, w := range wakes[1:] {
		if w > beats+3 {
			t.Errorf("follower p%d woke %d times in %v, want ≤ %d (its beats); one per tick would be %d",
				i+2, w, window, beats+3, window/tick)
		}
	}
}

// An idle leader wakes about once per promoteKeepalive ticks, to send the
// keepalive, and the keepalive keeps its cadence. The keepalives reach each
// follower every 16 ms, far within half the window (50 ms), so no link of
// the leader is ever due a beat and it takes no beat wake-up; a beat every
// timeout/4 would add 40.
func TestIdleLeaderWakesOncePerKeepalive(t *testing.T) {
	const tick = 2 * time.Millisecond
	const timeout = 100 * time.Millisecond
	const window = time.Second
	const keepalive = 8 // etob's promoteKeepalive
	wakes, promotes := idleStackWakes(t, Options{TickInterval: tick, LeaderTimeout: timeout}, window)
	keepalives := int64(window / (keepalive * tick))
	if limit := keepalives + keepalives/8 + 3; wakes[0] > limit {
		t.Errorf("leader woke %d times in %v, want ≤ %d; one per tick would be %d", wakes[0], window, limit, window/tick)
	}
	if promotes[0] < keepalives*3/4 || promotes[0] > keepalives+2 {
		t.Errorf("leader sent %d promotes in %v, want about %d keepalives", promotes[0], window, keepalives)
	}
}

// sendOnInput sends peer p2 one testPayload per input and counts the ones it
// receives. No tick of it is ever due.
type sendOnInput struct {
	got *atomic.Int64
}

func (a sendOnInput) Init(model.Context)             {}
func (a sendOnInput) Tick(model.Context)             {}
func (a sendOnInput) IdleTicks(any) int64            { return -1 }
func (a sendOnInput) Input(ctx model.Context, _ any) { ctx.Send(2, testPayload{}) }
func (a sendOnInput) Recv(_ model.Context, _ model.ProcID, payload any) {
	if _, ok := payload.(testPayload); ok {
		a.got.Add(1)
	}
}

// An update envelope lost on an otherwise quiet link is resent when its
// retransmission timeout is due: the resend heap, not the next frame or
// beat, wakes the sender. Beats here are half a second apart; the resend is
// due 3 to 6 ticks (30–60 ms) after the lost send.
func TestDroppedEnvelopeResentOnQuietLink(t *testing.T) {
	const tick = 10 * time.Millisecond
	var got atomic.Int64
	factory := retransmit.Wrap(func(model.ProcID, int) model.Automaton { return sendOnInput{got: &got} },
		retransmit.Options{Seed: 1})
	opts := Options{TickInterval: tick, LeaderTimeout: 2 * time.Second}
	nw := NewChanNetwork(2, ChanNetworkConfig{})
	ft := NewFaultTransport(nw.Endpoint(1), FaultConfig{})
	procs := []*Proc{NewProc(ft, factory, opts), NewProc(nw.Endpoint(2), factory, opts)}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
			<-p.Done()
		}
		nw.Close()
	})
	waitLeader(t, 5*time.Second, procs, 1)

	ft.Partition(1)
	procs[0].Submit("send")
	procs[0].Inspect(func(model.Automaton) {}) // the input step has run
	ft.Heal()
	start := time.Now()
	waitUntil(t, 5*time.Second, func() bool { return got.Load() == 1 })
	took := time.Since(start)
	var resends int64
	procs[0].Inspect(func(a model.Automaton) { resends = a.(*retransmit.Automaton).Resends() })
	if resends == 0 {
		t.Fatal("the payload arrived without a resend: the partition dropped nothing")
	}
	if took > 200*time.Millisecond {
		t.Errorf("lost envelope resent %v after the loss, want within its timeout (≤ 60 ms, 200 ms with slack)", took)
	}
}

// tickTimes records the wall time of every tick. It is not a Waker.
type tickTimes struct {
	at *[]time.Time
}

func (a tickTimes) Init(model.Context)                    {}
func (a tickTimes) Recv(model.Context, model.ProcID, any) {}
func (a tickTimes) Input(model.Context, any)              {}
func (a tickTimes) Tick(model.Context)                    { *a.at = append(*a.at, time.Now()) }

// An automaton that is not a Waker has every tick due: its loop wakes for
// each tick and runs it on time, as with a ticker.
func TestWakerlessAutomatonTicksEveryInterval(t *testing.T) {
	const tick = 5 * time.Millisecond
	const window = 500 * time.Millisecond
	var at []time.Time
	c := NewCluster(2, func(p model.ProcID, _ int) model.Automaton {
		if p == 1 {
			return tickTimes{at: &at}
		}
		return idleAuto{}
	}, Options{TickInterval: tick, LeaderTimeout: 2 * time.Second})
	defer c.Stop()
	time.Sleep(100 * time.Millisecond)

	p := c.Proc(1)
	w0 := p.Wakeups()
	time.Sleep(window)
	var ticks []time.Time
	p.Inspect(func(model.Automaton) { ticks = append(ticks, at...) })
	wakes := p.Wakeups() - w0
	if want := int64(window / tick); wakes < want*3/4 {
		t.Errorf("woke %d times in %v, want about %d, one per tick", wakes, window, want)
	}
	var gap time.Duration
	for i := 1; i < len(ticks); i++ {
		gap = max(gap, ticks[i].Sub(ticks[i-1]))
	}
	if gap > 50*time.Millisecond {
		t.Errorf("ticks ran up to %v apart, want about %v", gap, tick)
	}
}

// injectOnPromote calls inject on the first promote p2 sends after it is
// armed.
type injectOnPromote struct {
	sim.NopObserver
	armed  *atomic.Bool
	inject func()
}

func (o injectOnPromote) OnSend(_ model.Time, m sim.Message) {
	if _, ok := m.Payload.(etob.PromoteMsg); ok && m.From == 2 && o.armed.CompareAndSwap(true, false) {
		o.inject()
	}
}

// A leader whose Ω moves away and back between two of its steps still sends
// the promote that marks regained leadership. p1 runs no loop; right after
// a keepalive of leader p2, one Heartbeat from p1 turns p2's Ω to p1 for a
// leader timeout (40 ms), far less than the next keepalive (160 ms) and
// with no beat due meanwhile. p2 must run a tick while it trusts p1, which
// clears its leadership, so that the first tick after Ω returns sends a
// promote as one gaining leadership.
func TestRegainedLeadershipSendsPromote(t *testing.T) {
	const tick = 20 * time.Millisecond
	const timeout = 40 * time.Millisecond
	nw := NewChanNetwork(3, ChanNetworkConfig{})
	ep1 := nw.Endpoint(1)
	var armed atomic.Bool
	log := trace.NewStepLog()
	base := Options{TickInterval: tick, LeaderTimeout: timeout, DegradedAfter: 4 * time.Second}
	opts2 := base
	opts2.StepLog = log
	opts2.Observer = injectOnPromote{armed: &armed, inject: func() {
		_ = ep1.Send(Frame{From: 1, To: 2, Payload: Heartbeat{}})
	}}
	procs := []*Proc{NewProc(nw.Endpoint(2), replicaStack(), opts2), NewProc(nw.Endpoint(3), replicaStack(), base)}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
			<-p.Done()
		}
		nw.Close()
	})
	waitLeader(t, 5*time.Second, procs, 2)
	time.Sleep(4 * timeout)
	armed.Store(true)
	waitUntil(t, 5*time.Second, func() bool { return !armed.Load() })
	time.Sleep(8 * tick)

	away, back := false, false
	for _, s := range log.Steps() {
		if s.Kind != trace.StepTick || !away {
			if s.Kind == trace.StepTick && s.FD == fd.OmegaValue(1) {
				away = true
			}
			continue
		}
		if s.FD == fd.OmegaValue(1) {
			continue
		}
		for _, snd := range s.Sends {
			if _, ok := snd.Payload.(etob.PromoteMsg); ok {
				back = true
			}
		}
		break
	}
	if !away {
		t.Fatal("p2 ran no tick while it trusted p1: its leadership was never cleared")
	}
	if !back {
		t.Error("p2's first tick after Ω returned to it sent no promote")
	}
}
