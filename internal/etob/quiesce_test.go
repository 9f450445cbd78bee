package etob

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// The tests in this file pin the three cases in which a leader sends
// promote(promote_i) (see Tick): each fails when its case is taken out.

const tick = model.Time(5) // sim.Options' default TickInterval

// scriptedOmega is an Ω history given as a plain function of (p, t).
type scriptedOmega func(p model.ProcID, t model.Time) model.ProcID

func (scriptedOmega) Name() string                             { return "Omega" }
func (o scriptedOmega) Value(p model.ProcID, t model.Time) any { return o(p, t) }

// promoteLog records, per process, the times it broadcast a promote and the
// times and values of its d_i outputs.
type promoteLog struct {
	sim.NopObserver
	sent map[model.ProcID][]model.Time
	outs map[model.ProcID][]outPoint
}

type outPoint struct {
	t   model.Time
	seq []string
}

func newPromoteLog() *promoteLog {
	return &promoteLog{sent: map[model.ProcID][]model.Time{}, outs: map[model.ProcID][]outPoint{}}
}

func (l *promoteLog) OnSend(t model.Time, m sim.Message) {
	// A broadcast is one send per destination: count it once, at the copy
	// addressed to its sender.
	if _, ok := m.Payload.(PromoteMsg); ok && m.To == m.From {
		l.sent[m.From] = append(l.sent[m.From], t)
	}
}

func (l *promoteLog) OnOutput(p model.ProcID, t model.Time, v any) {
	if s, ok := v.(model.SeqSnapshot); ok {
		l.outs[p] = append(l.outs[p], outPoint{t, s.Seq})
	}
}

// firstSentAtOrAfter returns p's first promote send at or after t.
func (l *promoteLog) firstSentAtOrAfter(p model.ProcID, t model.Time) (model.Time, bool) {
	for _, s := range l.sent[p] {
		if s >= t {
			return s, true
		}
	}
	return 0, false
}

// firstOutputAfter returns p's first d_i output strictly after t.
func (l *promoteLog) firstOutputAfter(p model.ProcID, t model.Time) (outPoint, bool) {
	for _, o := range l.outs[p] {
		if o.t > t {
			return o, true
		}
	}
	return outPoint{}, false
}

// TestLateFollowerAdoptsWithinKeepalive pins case (c), the keepalive: p3
// trusts p2, which never leads, until switchAt, long after p1's promote_i
// last changed. p1 has nothing new to send then, so only a keepalive can
// reach p3; it must adopt p1's promote_i within promoteKeepalive ticks plus
// one link delay.
func TestLateFollowerAdoptsWithinKeepalive(t *testing.T) {
	const switchAt = 2000
	fp := model.NewFailurePattern(3)
	det := scriptedOmega(func(p model.ProcID, t model.Time) model.ProcID {
		if p == 3 && t < switchAt {
			return 2
		}
		return 1
	})
	log := newPromoteLog()
	k := sim.New(fp, det, Factory(), sim.Options{Seed: 5})
	k.SetObserver(log)
	scheduleBroadcasts(k, 3, 3, 20, 40)
	k.Run(switchAt + 1000)

	want := k.Automaton(1).(*Automaton).Promote()
	if len(want) != 9 {
		t.Fatalf("leader promote_i has %d ops, want 9", len(want))
	}
	if len(log.outs[3]) != 0 && log.outs[3][0].t < switchAt {
		t.Fatalf("p3 adopted %v at %d, before its Ω switched to p1", log.outs[3][0].seq, log.outs[3][0].t)
	}
	got, ok := log.firstOutputAfter(3, 0)
	if !ok || !slices.Equal(got.seq, want) {
		t.Fatalf("p3 never adopted p1's promote_i %v (first output %+v)", want, got)
	}
	bound := model.Time(switchAt) + promoteKeepalive*tick + 20 // + the default MaxDelay
	if got.t > bound {
		t.Errorf("p3 adopted p1's promote_i at %d, want by %d (keepalive %d ticks after %d)",
			got.t, bound, promoteKeepalive, switchAt)
	}
	// The last change must precede the switch by more than a keepalive
	// period, or a send on change would have carried p3 there anyway.
	if last := log.outs[1][len(log.outs[1])-1].t; last+promoteKeepalive*tick >= switchAt {
		t.Fatalf("p1's last change at %d is too close to the switch at %d", last, switchAt)
	}
}

// TestRegainedLeadershipPromotesAtOnce pins case (b): p1 leads, loses
// leadership to p2 for a few ticks, and regains it with promote_i unchanged.
// Its first tick as leader again must send, although promote_i did not grow
// and no keepalive is due.
func TestRegainedLeadershipPromotesAtOnce(t *testing.T) {
	const lostAt, regainedAt = 150, 180
	fp := model.NewFailurePattern(3)
	det := scriptedOmega(func(_ model.ProcID, t model.Time) model.ProcID {
		if t >= lostAt && t < regainedAt {
			return 2
		}
		return 1
	})
	log := newPromoteLog()
	k := sim.New(fp, det, Factory(), sim.Options{Seed: 9})
	k.SetObserver(log)
	k.ScheduleInput(2, 100, model.BroadcastInput{ID: "m1"})
	k.Run(600)

	// Non-vacuity: p1's last send before losing leadership is recent enough
	// that no keepalive falls due at its first tick after regaining it.
	var last model.Time = -1
	for _, s := range log.sent[1] {
		if s < lostAt {
			last = s
		}
	}
	if last < 0 {
		t.Fatal("p1 sent no promote before losing leadership")
	}
	if ticks := (lostAt-last)/tick + 1; ticks >= promoteKeepalive {
		t.Fatalf("p1 last sent at %d: a keepalive (%d ticks) would fall due on regaining", last, promoteKeepalive)
	}
	if got := k.Automaton(1).(*Automaton).Promote(); len(got) != 1 {
		t.Fatalf("p1 promote_i = %v, want [m1]", got)
	}

	sent, ok := log.firstSentAtOrAfter(1, regainedAt)
	if !ok || sent >= regainedAt+tick {
		t.Errorf("p1 regained leadership at %d and first promoted at %d (ok=%v), want its first tick",
			regainedAt, sent, ok)
	}
	for _, s := range log.sent[1] {
		if s >= lostAt && s < regainedAt {
			t.Errorf("p1 promoted at %d while Ω output p2", s)
		}
	}
}

// TestRestartedLeaderAdoptedAsSoonAsBefore pins the per-tick counter. p1
// leads a busy stretch, crashes, restarts, stays idle, and then sees writes
// again. Its followers' stale-promote guard holds the counter of p1's old
// incarnation, so they adopt nothing from the new one until its counter
// climbs past that. Advancing the counter on every leader tick, sent or not,
// climbs at the rate of a leader that sent every tick. A counter advanced
// per send would climb at one per keepalive through the idle stretch and
// stay muted long after the writes resume.
func TestRestartedLeaderAdoptedAsSoonAsBefore(t *testing.T) {
	// restartedLeaderFirstAdopt is when p2 first adopted a promote of p1's
	// new incarnation when the leader promoted on every tick, as the paper
	// writes it, on this schedule and seed.
	const restartedLeaderFirstAdopt = 920
	const crashAt, restartAt = 400, 500
	fp := model.NewFailurePattern(3)
	det := scriptedOmega(func(model.ProcID, model.Time) model.ProcID { return 1 })
	faults := downWindows{1: {crashAt, restartAt}}
	log := newPromoteLog()
	// A fixed link delay keeps the schedule independent of how many
	// messages were sent before, so it is the same one at every tick
	// policy.
	k := sim.New(fp, det, Factory(), sim.Options{MinDelay: 15, MaxDelay: 15, Faults: faults})
	k.SetObserver(log)
	w := 0
	write := func(from, to model.Time) {
		for at := from; at < to; at += 2 {
			w++
			k.ScheduleInput(model.ProcID(2+w%2), at, model.BroadcastInput{ID: fmt.Sprintf("w%03d", w)})
		}
	}
	write(20, crashAt) // busy: the old incarnation sends on every tick
	write(900, 1100)   // the new incarnation's counter passes the old one's near here
	k.Run(2000)

	got, ok := log.firstOutputAfter(2, restartAt)
	if !ok {
		t.Fatal("p2 never adopted a promote from p1's new incarnation")
	}
	if got.t > restartedLeaderFirstAdopt {
		t.Errorf("p2 first adopted a promote of the restarted leader at %d, want by %d", got.t, restartedLeaderFirstAdopt)
	}
	if got.t < crashAt+(restartAt-crashAt)+(crashAt/tick)*tick {
		t.Errorf("p2 adopted the restarted leader at %d, before its counter could pass the old one's", got.t)
	}
}

// downWindows holds each listed process down over one [crash, restart)
// window; everyone else is up throughout.
type downWindows map[model.ProcID][2]model.Time

func (d downWindows) Up(p model.ProcID, t model.Time) bool {
	w, ok := d[p]
	return !ok || t < w[0] || t >= w[1]
}

func (d downWindows) Restarts(p model.ProcID) []model.Time {
	if w, ok := d[p]; ok {
		return []model.Time{w[1]}
	}
	return nil
}

// TestGrowthWhileNotLeaderPromotedAtNextTick: p1 leads, but its Ω outputs
// p2 for a stretch between two of its ticks, and an update grows promote_i
// inside that stretch. p1 may not promote then, and its next tick, as
// leader again, must send the growth as one gaining leadership, not leave
// it to the keepalive.
func TestGrowthWhileNotLeaderPromotedAtNextTick(t *testing.T) {
	// p1 ticks at 1 + 5k; its Ω outputs p2 over [102, 105).
	const lostAt, regainedAt, nextTick = 102, 105, 106
	fp := model.NewFailurePattern(3)
	det := scriptedOmega(func(p model.ProcID, t model.Time) model.ProcID {
		if p == 1 && t >= lostAt && t < regainedAt {
			return 2
		}
		return 1
	})
	log := newPromoteLog()
	k := sim.New(fp, det, Factory(), sim.Options{MinDelay: 7, MaxDelay: 7})
	k.SetObserver(log)
	k.ScheduleInput(2, lostAt-6, model.BroadcastInput{ID: "m1"}) // reaches p1 at 103
	k.Run(300)

	if sent, ok := log.firstSentAtOrAfter(1, lostAt); !ok || sent != nextTick {
		t.Errorf("p1 first promoted at %d (ok=%v) after promote_i grew at %d, want its next tick %d",
			sent, ok, lostAt+1, nextTick)
	}
	// Non-vacuity: no keepalive falls due at that tick.
	var last model.Time = -1
	for _, s := range log.sent[1] {
		if s < lostAt {
			last = s
		}
	}
	if last < 0 || (nextTick-last)/tick >= promoteKeepalive {
		t.Fatalf("p1 last promoted at %d: a keepalive falls due at %d", last, nextTick)
	}
}

// TestIdleTicksPredictsDueTicks pins IdleTicks against Tick itself: over an
// Ω schedule that makes p1 leader, takes leadership away and gives it back,
// a tick changes what p1 sends or its leadership flag exactly when the
// previous IdleTicks answer was 0.
func TestIdleTicksPredictsDueTicks(t *testing.T) {
	var schedule []model.ProcID
	for _, run := range []struct {
		leader model.ProcID
		ticks  int
	}{{1, 30}, {2, 5}, {1, 20}, {3, 1}, {1, 12}} {
		for i := 0; i < run.ticks; i++ {
			schedule = append(schedule, run.leader)
		}
	}
	a := New(1, 3)
	var out []sent
	a.Init(capCtx{self: 1, n: 3, fd: fd.OmegaValue(1), out: &out})
	sends := 0
	for i, l := range schedule {
		ctx := capCtx{self: 1, n: 3, fd: fd.OmegaValue(l), out: &out}
		k := a.IdleTicks(ctx.fd)
		before, was := len(out), a.wasLeader
		a.Tick(ctx)
		due := len(out) > before || a.wasLeader != was
		if due != (k == 0) {
			t.Fatalf("tick %d (Ω=%v): IdleTicks said %d, but the tick was due=%v", i, l, k, due)
		}
		if len(out) > before {
			sends++
		}
	}
	if sends < 8 {
		t.Fatalf("only %d promotes over the schedule: it exercised too little", sends)
	}
}
