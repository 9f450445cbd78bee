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

// recvCount tracks, per (receiver, payload), how many times the INNER
// automaton saw the payload — the exactly-once ledger.
type recvCount map[model.ProcID]map[string]int

// counterAuto is the inner protocol: inputs broadcast, receipts are counted.
type counterAuto struct {
	self   model.ProcID
	counts recvCount
}

func (a *counterAuto) Init(model.Context) {}
func (a *counterAuto) Tick(model.Context) {}

func (a *counterAuto) Recv(_ model.Context, _ model.ProcID, payload any) {
	byPayload := a.counts[a.self]
	if byPayload == nil {
		byPayload = map[string]int{}
		a.counts[a.self] = byPayload
	}
	byPayload[payload.(string)]++
}

func (a *counterAuto) Input(ctx model.Context, in any) { ctx.Broadcast(in.(string)) }

func counterFactory(counts recvCount) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		return &counterAuto{self: p, counts: counts}
	}
}

// TestExactlyOnceOverLossy is the property the wrapper exists for: over a
// bursty lossy network, every broadcast payload reaches the inner automaton
// of every correct process EXACTLY once — resends supply at-least-once, dedup
// supplies at-most-once. Checked across multiple seeds so the property does
// not hinge on one lucky loss pattern.
func TestExactlyOnceOverLossy(t *testing.T) {
	const n, payloads = 4, 6
	for seed := int64(1); seed <= 10; seed++ {
		counts := make(recvCount)
		fp := model.NewFailurePattern(n)
		k := sim.New(fp, fd.NewOmegaStable(fp, 1),
			retransmit.Wrap(counterFactory(counts), retransmit.Options{Seed: seed}),
			sim.Options{
				Seed: seed,
				Network: func() sim.NetworkModel {
					return &adversary.Lossy{Drop: 0.3, Burst: 3}
				},
			})
		var want []string
		for i := 0; i < payloads; i++ {
			id := fmt.Sprintf("m%d", i)
			want = append(want, id)
			k.ScheduleInput(model.ProcID(i%n+1), model.Time(50+40*i), id)
		}
		k.Run(30000)

		if k.MessagesLost() == 0 {
			t.Fatalf("seed %d: no losses — the network is not exercising retransmission", seed)
		}
		resends := int64(0)
		for _, p := range model.Procs(n) {
			a := k.Automaton(p).(*retransmit.Automaton)
			resends += a.Resends()
			if pend := a.PendingEnvelopes(); pend != 0 {
				t.Errorf("seed %d: %v still has %d unacked envelopes after the run settled", seed, p, pend)
			}
			for _, id := range want {
				if got := counts[p][id]; got != 1 {
					t.Errorf("seed %d: %v received %q %d times, want exactly 1", seed, p, id, got)
				}
			}
		}
		if resends == 0 {
			t.Errorf("seed %d: losses occurred but nothing was resent", seed)
		}
	}
}

// TestRetransmitTransparentOnCleanNetwork: over a loss-free network the
// wrapper must not change what the inner protocol sees — same exactly-once
// ledger, no resends beyond backoff noise racing the first ack.
func TestRetransmitTransparentOnCleanNetwork(t *testing.T) {
	const n = 3
	counts := make(recvCount)
	fp := model.NewFailurePattern(n)
	k := sim.New(fp, fd.NewOmegaStable(fp, 1),
		retransmit.Wrap(counterFactory(counts), retransmit.Options{Seed: 5, RTO: 10}),
		sim.Options{Seed: 5})
	k.ScheduleInput(1, 50, "a")
	k.ScheduleInput(2, 90, "b")
	k.Run(5000)
	for _, p := range model.Procs(n) {
		for _, id := range []string{"a", "b"} {
			if got := counts[p][id]; got != 1 {
				t.Errorf("%v received %q %d times, want 1", p, id, got)
			}
		}
	}
}

// TestDedupStateBounded is the watermark-pruning regression test: over a
// LONG lossy run (many payloads, sustained bursty loss) the receiver-side
// dedup state must stay bounded by the in-flight reordering window — not grow
// one entry per envelope forever, as the pre-watermark implementation did —
// while delivery remains exactly-once. The sparse size is sampled after every
// kernel event, so a transient blow-up cannot hide behind a clean final
// state.
func TestDedupStateBounded(t *testing.T) {
	const n, payloads = 3, 120
	counts := make(recvCount)
	fp := model.NewFailurePattern(n)
	k := sim.New(fp, fd.NewOmegaStable(fp, 1),
		retransmit.Wrap(counterFactory(counts), retransmit.Options{Seed: 11}),
		sim.Options{
			Seed:    11,
			MaxTime: 400000,
			Network: func() sim.NetworkModel {
				return &adversary.Lossy{Drop: 0.25, Burst: 3}
			},
		})
	var want []string
	for i := 0; i < payloads; i++ {
		id := fmt.Sprintf("m%d", i)
		want = append(want, id)
		k.ScheduleInput(model.ProcID(i%n+1), model.Time(50+60*i), id)
	}
	maxSparse := 0
	k.RunUntil(400000, func(k *sim.Kernel) bool {
		for _, p := range model.Procs(n) {
			if s := k.Automaton(p).(*retransmit.Automaton).DedupSparse(); s > maxSparse {
				maxSparse = s
			}
		}
		return false
	})

	if k.MessagesLost() < 100 {
		t.Fatalf("only %d losses — the run is not long/lossy enough to exercise pruning", k.MessagesLost())
	}
	// Every payload broadcast to n processes: n*payloads envelopes per
	// receiver across the run. The sparse set must stay far below that —
	// the bound here is ~an order of magnitude under the naive growth while
	// leaving room for genuine reordering bursts.
	if total := n * payloads; maxSparse >= total/8 {
		t.Errorf("dedup sparse state peaked at %d entries (of %d envelopes per receiver): watermark is not pruning", maxSparse, total)
	}
	for _, p := range model.Procs(n) {
		a := k.Automaton(p).(*retransmit.Automaton)
		if s := a.DedupSparse(); s != 0 {
			t.Errorf("%v still holds %d sparse dedup entries after every gap closed", p, s)
		}
		if streams := a.DedupStreams(); streams > n {
			t.Errorf("%v tracks %d dedup streams, want <= %d (no restarts in this run)", p, streams, n)
		}
		for _, id := range want {
			if got := counts[p][id]; got != 1 {
				t.Errorf("%v received %q %d times, want exactly 1", p, id, got)
			}
		}
	}
}

// TestDedupBoundedAcrossReceiverRestart covers the churn half of the
// watermark fix: a RESTARTED receiver's fresh dedup ledger first hears from
// a surviving sender at a seq far above 1, and without the Base field in
// every envelope that bottom gap could never close (the missing seqs were
// acked to the previous incarnation), pinning one sparse entry per
// subsequent envelope for the rest of the run. With Base the ledger
// compacts immediately: sparse state must return to 0 once the run settles,
// and payloads broadcast after the restart must reach the new incarnation
// exactly once.
func TestDedupBoundedAcrossReceiverRestart(t *testing.T) {
	const n = 3
	counts := make(recvCount)
	fp := model.NewFailurePattern(n)
	faults := adversary.NewFaultSchedule(n)
	faults.Down(2, 300, 400) // p2 restarts at t=400 with fresh wrapper state
	k := sim.New(fp, fd.NewOmegaStable(fp, 1),
		retransmit.Wrap(counterFactory(counts), retransmit.Options{Seed: 6}),
		sim.Options{Seed: 6, MaxTime: 100000, Faults: faults})
	var postRestart []string
	for i := 0; i < 120; i++ {
		id := fmt.Sprintf("m%d", i)
		at := model.Time(50 + 25*i)
		if at >= 450 {
			postRestart = append(postRestart, id)
		}
		k.ScheduleInput(1, at, id)
	}
	maxSparse := 0
	k.RunUntil(100000, func(k *sim.Kernel) bool {
		if a, ok := k.Automaton(2).(*retransmit.Automaton); ok {
			if s := a.DedupSparse(); s > maxSparse {
				maxSparse = s
			}
		}
		return false
	})
	p2 := k.Automaton(2).(*retransmit.Automaton)
	if s := p2.DedupSparse(); s != 0 {
		t.Errorf("p2 holds %d sparse dedup entries after settling, want 0: the restart gap never compacted", s)
	}
	if maxSparse > 20 {
		t.Errorf("p2's sparse dedup state peaked at %d entries: growing with traffic, not with the reordering window", maxSparse)
	}
	for _, id := range postRestart {
		if got := counts[2][id]; got != 1 {
			t.Errorf("p2's new incarnation received %q %d times, want exactly 1", id, got)
		}
	}
}

// tick is the kernel's default TickInterval in time units.
const tick = 5

// envelopeID identifies one envelope across its copies.
type envelopeID struct {
	from, to   model.ProcID
	epoch, seq int64
}

// resendGaps records the largest gap between consecutive transmissions of
// one envelope.
type resendGaps struct {
	sim.NopObserver
	last    map[envelopeID]model.Time
	max     model.Time
	resends int
}

func (g *resendGaps) OnSend(t model.Time, m sim.Message) {
	d, ok := m.Payload.(retransmit.Data)
	if !ok {
		return
	}
	id := envelopeID{from: m.From, to: m.To, epoch: d.Epoch, seq: d.Seq}
	if prev, seen := g.last[id]; seen {
		g.resends++
		g.max = max(g.max, t-prev)
	}
	g.last[id] = t
}

// TestMaxRTOClampRespectsExplicitCap pins the Options fix: an explicitly
// configured MaxRTO below RTO is the caller's cap and must bound every
// resend interval (the old defaulting replaced it with max(48, RTO), so
// RTO=100/MaxRTO=50 silently became a 100-tick cap). The resend schedule is
// observed from outside: with RTO=100/MaxRTO=9 honored, a lossy first copy
// is resent within a handful of ticks; with the cap discarded it would sit
// ~100 ticks. The cap also bounds each link's learned timeout: a round trip
// longer than MaxRTO is learned as MaxRTO, and one shorter than RTO leaves
// the timeout at RTO. Every gap between two transmissions of one envelope is
// observed on the wire and must stay within MaxRTO plus the largest jitter.
func TestMaxRTOClampRespectsExplicitCap(t *testing.T) {
	// Ten payloads, so that some first copy is acked unresent and the second
	// case's link gets a round-trip sample to clamp.
	const payloads = 10
	for _, tc := range []struct {
		name     string
		opts     retransmit.Options
		min, max model.Time // one-way delay bounds
		wantRTO  int        // learned per-link timeout, clamped
	}{
		// Sub-tick round trips: samples of 0 or 1 tick, floored at RTO.
		{"cap below RTO clamps RTO", retransmit.Options{Seed: 3, RTO: 100, MaxRTO: 9}, 1, 2, 9},
		// 3-7 tick round trips learn SRTT + 4·RTTVAR above 9, capped at 9.
		{"learned RTO capped at MaxRTO", retransmit.Options{Seed: 3, RTO: 4, MaxRTO: 9}, 10, 17, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := make(recvCount)
			gaps := &resendGaps{last: map[envelopeID]model.Time{}}
			fp := model.NewFailurePattern(2)
			k := sim.New(fp, fd.NewOmegaStable(fp, 1),
				retransmit.Wrap(counterFactory(counts), tc.opts),
				sim.Options{
					Seed: 3,
					Network: func() sim.NetworkModel {
						return &adversary.Lossy{Drop: 0.45, Min: tc.min, Max: tc.max}
					},
				})
			k.SetObserver(gaps)
			for i := 0; i < payloads; i++ {
				k.ScheduleInput(1, model.Time(50+100*i), fmt.Sprintf("x%d", i))
			}
			k.RunUntil(20000, func(k *sim.Kernel) bool { // every envelope acked
				for _, p := range model.Procs(2) {
					if k.Automaton(p).(*retransmit.Automaton).PendingEnvelopes() != 0 {
						return false
					}
				}
				return k.Now() > 450
			})
			resends := int64(0)
			for _, p := range model.Procs(2) {
				a := k.Automaton(p).(*retransmit.Automaton)
				resends += a.Resends()
				for i := 0; i < payloads; i++ {
					if got := counts[p][fmt.Sprintf("x%d", i)]; got != 1 {
						t.Errorf("%v received x%d %d times, want 1", p, i, got)
					}
				}
			}
			if resends == 0 {
				t.Fatal("no resends: cap behavior not exercised")
			}
			if got := k.Automaton(1).(*retransmit.Automaton).LearnedRTO(); got != tc.wantRTO {
				t.Errorf("p1's learned RTO = %d ticks, want %d", got, tc.wantRTO)
			}
			// The schedule property itself: every inter-resend gap must
			// respect the explicit cap, MaxRTO plus jitter in [0, RTO) with
			// RTO clamped to MaxRTO. With the old defaulting the first
			// case's gap would be RTO·2^k up to 100+ ticks; with the clamp
			// it is at most 9 + 8 = 17.
			capTicks := tc.opts.MaxRTO + min(tc.opts.RTO, tc.opts.MaxRTO) - 1
			if gaps.resends == 0 {
				t.Fatal("no resend observed on the wire")
			}
			if limit := model.Time(capTicks) * tick; gaps.max > limit {
				t.Errorf("largest inter-resend gap %d time units (%d ticks), want ≤ %d ticks", gaps.max, gaps.max/tick, capTicks)
			}
		})
	}
}

// crashedReceiverRun drives the sender-bound scenario: p2 crashes permanently
// early in the run while p1 keeps broadcasting, so every post-crash envelope
// on the 1→2 link is unackable. It returns p1's wrapper for inspection.
func crashedReceiverRun(t *testing.T, opts retransmit.Options) (*retransmit.Automaton, recvCount, []string) {
	t.Helper()
	const n, payloads = 3, 60
	counts := make(recvCount)
	fp := model.NewCrashPattern(n, map[model.ProcID]model.Time{2: 300})
	k := sim.New(fp, fd.NewOmegaStable(fp, 1),
		retransmit.Wrap(counterFactory(counts), opts),
		sim.Options{Seed: 9, MaxTime: 200000})
	var postCrash []string
	for i := 0; i < payloads; i++ {
		id := fmt.Sprintf("m%d", i)
		at := model.Time(50 + 100*i)
		if at >= 300 {
			postCrash = append(postCrash, id)
		}
		k.ScheduleInput(1, at, id)
	}
	k.Run(200000)
	return k.Automaton(1).(*retransmit.Automaton), counts, postCrash
}

// TestSenderUnboundedWithoutGiveUp is the RED half of the sender-bound fix:
// with GiveUpTicks disabled (the paper-faithful default), a sender facing a
// permanently crashed receiver accumulates one immortal pending envelope per
// broadcast, forever — correct under the paper's "correct processes" framing,
// a leak for a long-lived deployable node.
func TestSenderUnboundedWithoutGiveUp(t *testing.T) {
	a, _, postCrash := crashedReceiverRun(t, retransmit.Options{Seed: 9})
	if got := a.PendingEnvelopes(); got < len(postCrash) {
		t.Fatalf("pending = %d, want >= %d (one immortal envelope per post-crash broadcast): "+
			"if this fails the red scenario no longer demonstrates the leak", got, len(postCrash))
	}
	if a.Abandoned() != 0 {
		t.Fatalf("abandoned = %d with GiveUpTicks disabled, want 0", a.Abandoned())
	}
}

// TestSenderBoundedByGiveUp is the GREEN half: with a give-up bound well
// above the backoff cap, the same run drains the sender completely — every
// unackable envelope is abandoned once backoff has capped and the link has
// stayed silent — while delivery between the correct processes remains
// exactly-once.
func TestSenderBoundedByGiveUp(t *testing.T) {
	a, counts, _ := crashedReceiverRun(t, retransmit.Options{Seed: 9, GiveUpTicks: 200})
	if got := a.PendingEnvelopes(); got != 0 {
		t.Errorf("pending = %d after the run settled, want 0: give-up did not bound the sender", got)
	}
	if a.Abandoned() == 0 {
		t.Error("nothing abandoned against a permanently crashed receiver")
	}
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("m%d", i)
		for _, p := range []model.ProcID{1, 3} {
			if got := counts[p][id]; got != 1 {
				t.Errorf("%v received %q %d times, want exactly 1 (give-up must not touch live links)", p, id, got)
			}
		}
	}
}

// TestGiveUpSparesReturningProcess pins the at-least-once caveat: a process
// that comes BACK within the give-up window keeps the delivery guarantee.
// p2 is down for a stretch while p1 broadcasts; with GiveUpTicks far above
// the outage, p1 abandons nothing and p2's new incarnation receives every
// payload sent during the outage exactly once.
func TestGiveUpSparesReturningProcess(t *testing.T) {
	const n = 3
	counts := make(recvCount)
	fp := model.NewFailurePattern(n)
	faults := adversary.NewFaultSchedule(n)
	faults.Down(2, 300, 2000)
	k := sim.New(fp, fd.NewOmegaStable(fp, 1),
		retransmit.Wrap(counterFactory(counts), retransmit.Options{Seed: 4, GiveUpTicks: 100000}),
		sim.Options{Seed: 4, MaxTime: 100000, Faults: faults})
	var during []string
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("m%d", i)
		at := model.Time(50 + 40*i)
		if at >= 300 && at < 2000 {
			during = append(during, id)
		}
		k.ScheduleInput(1, at, id)
	}
	k.Run(100000)
	a1 := k.Automaton(1).(*retransmit.Automaton)
	if a1.Abandoned() != 0 {
		t.Errorf("p1 abandoned %d envelopes though p2 returned within the window", a1.Abandoned())
	}
	if len(during) == 0 {
		t.Fatal("no payloads fell inside the outage; scenario broken")
	}
	for _, id := range during {
		if got := counts[2][id]; got != 1 {
			t.Errorf("p2's new incarnation received %q %d times, want exactly 1", id, got)
		}
	}
}

// TestRetransmitDeterminism: wrapped runs follow the kernel's bit-for-bit
// contract — the wrapper's jitter is seeded, so same seed, same run.
func TestRetransmitDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		counts := make(recvCount)
		fp := model.NewFailurePattern(3)
		k := sim.New(fp, fd.NewOmegaStable(fp, 1),
			retransmit.Wrap(counterFactory(counts), retransmit.Options{Seed: 2}),
			sim.Options{Seed: 2, Network: func() sim.NetworkModel { return adversary.NewLossy(0.25) }})
		k.ScheduleInput(1, 40, "x")
		k.ScheduleInput(3, 200, "y")
		k.Run(10000)
		return k.Steps(), k.MessagesSent(), k.MessagesLost()
	}
	s1, m1, l1 := run()
	s2, m2, l2 := run()
	if s1 != s2 || m1 != m2 || l1 != l2 {
		t.Fatalf("same seed must reproduce: (%d,%d,%d) vs (%d,%d,%d)", s1, m1, l1, s2, m2, l2)
	}
}
