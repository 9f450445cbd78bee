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

// latest is a payload its sender repeats on its own, like etob.PromoteMsg.
type latest struct{ ID string }

func (latest) RepeatedBySender() {}

// unicast asks mixedAuto to send L to one process only.
type unicast struct {
	To model.ProcID
	L  latest
}

// mixedAuto broadcasts a string input as a plain payload and a latest input
// as a repeated one, which it broadcasts again every `repeat` ticks (0:
// never), and sends a unicast input's payload to its one destination. It
// counts receipts of both kinds.
type mixedAuto struct {
	self   model.ProcID
	counts recvCount
	repeat int
	newest *latest
	since  int
}

func (a *mixedAuto) Init(model.Context) {}

func (a *mixedAuto) Input(ctx model.Context, in any) {
	if u, ok := in.(unicast); ok {
		ctx.Send(u.To, u.L)
		return
	}
	if l, ok := in.(latest); ok {
		a.newest, a.since = &l, 0
	}
	ctx.Broadcast(in)
}

func (a *mixedAuto) Tick(ctx model.Context) {
	if a.newest == nil || a.repeat == 0 {
		return
	}
	if a.since++; a.since >= a.repeat {
		a.since = 0
		ctx.Broadcast(*a.newest)
	}
}

func (a *mixedAuto) Recv(_ model.Context, _ model.ProcID, payload any) {
	if a.counts[a.self] == nil {
		a.counts[a.self] = map[string]int{}
	}
	if l, ok := payload.(latest); ok {
		a.counts[a.self][l.ID]++
		return
	}
	a.counts[a.self][payload.(string)]++
}

func mixedFactory(counts recvCount, repeat int) model.AutomatonFactory {
	return func(p model.ProcID, _ int) model.Automaton {
		return &mixedAuto{self: p, counts: counts, repeat: repeat}
	}
}

// wireCount classifies what the wrapper puts on the wire.
type wireCount struct {
	sim.NopObserver
	data, acks, selfData, rawLatest, rawOther int
}

func (w *wireCount) OnSend(_ model.Time, m sim.Message) {
	switch p := m.Payload.(type) {
	case retransmit.Data:
		w.data++
		if m.From == m.To {
			w.selfData++
		}
		if _, ok := p.Payload.(latest); ok {
			w.rawLatest = -1 << 30 // a repeated payload inside an envelope
		}
	case retransmit.Ack:
		w.acks++
	case latest:
		w.rawLatest++
	default:
		w.rawOther++
	}
}

// TestSelfAndRepeatedSendsAreRaw pins the raw path: a process's copy of its
// own broadcast and every copy of a Repeated payload, broadcast or sent to
// one process, travel without an envelope, leave nothing pending and draw no
// ack, while a plain payload's peer copies are still enveloped and acked.
// Every copy arrives once on a loss-free network; an RTO of 10 ticks exceeds
// its round trip, so nothing is resent.
func TestSelfAndRepeatedSendsAreRaw(t *testing.T) {
	const n = 3
	counts := make(recvCount)
	w := &wireCount{}
	fp := model.NewFailurePattern(n)
	k := sim.New(fp, fd.NewOmegaStable(fp, 1),
		retransmit.Wrap(mixedFactory(counts, 0), retransmit.Options{Seed: 2, RTO: 10}),
		sim.Options{Seed: 2})
	k.SetObserver(w)
	k.ScheduleInput(1, 50, "plain")
	k.ScheduleInput(2, 50, latest{ID: "rep"})
	k.ScheduleInput(3, 50, unicast{To: 1, L: latest{ID: "uni"}})
	k.Run(60)
	if got := k.Automaton(1).(*retransmit.Automaton).PendingEnvelopes(); got != n-1 {
		t.Errorf("p1 holds %d pending envelopes after its broadcast, want one per peer (%d)", got, n-1)
	}
	for _, p := range []model.ProcID{2, 3} {
		if got := k.Automaton(p).(*retransmit.Automaton).PendingEnvelopes(); got != 0 {
			t.Errorf("%v holds %d pending envelopes after sending a repeated payload, want 0", p, got)
		}
	}
	k.Run(5000)

	if w.data != n-1 || w.selfData != 0 {
		t.Errorf("%d envelopes (%d to self), want %d, none to self", w.data, w.selfData, n-1)
	}
	if w.acks != n-1 {
		t.Errorf("%d acks, want one per envelope (%d)", w.acks, n-1)
	}
	if w.rawOther != 1 || w.rawLatest != n+1 {
		t.Errorf("raw copies: %d plain, %d repeated; want 1 (p1's own) and %d", w.rawOther, w.rawLatest, n+1)
	}
	if got := counts[1]["uni"]; got != 1 {
		t.Errorf("p1 received the unicast repeated payload %d times, want 1", got)
	}
	for _, q := range model.Procs(n) {
		if pend := k.Automaton(q).(*retransmit.Automaton).PendingEnvelopes(); pend != 0 {
			t.Errorf("%v still has %d unacked envelopes", q, pend)
		}
		for _, id := range []string{"plain", "rep"} {
			if got := counts[q][id]; got != 1 {
				t.Errorf("%v received %q %d times, want 1", q, id, got)
			}
		}
	}
}

// TestRepeatedStreamOverLossy: each process broadcasts a stream of Repeated
// payloads, a new one every 5 ticks and the newest again every 4 ticks, over
// a bursty lossy network. The wrapper sends none of them in an envelope and
// holds nothing pending at any point, yet every receiver gets every sender's
// last payload: the sender's own repetition replaces retransmission.
func TestRepeatedStreamOverLossy(t *testing.T) {
	const n, perSender, horizon = 3, 30, 30000
	for seed := int64(1); seed <= 10; seed++ {
		counts := make(recvCount)
		w := &wireCount{}
		fp := model.NewFailurePattern(n)
		k := sim.New(fp, fd.NewOmegaStable(fp, 1),
			retransmit.Wrap(mixedFactory(counts, 4), retransmit.Options{Seed: seed}),
			sim.Options{
				Seed:    seed,
				Network: func() sim.NetworkModel { return &adversary.Lossy{Drop: 0.3, Burst: 3} },
			})
		k.SetObserver(w)
		for _, p := range model.Procs(n) {
			for i := 0; i < perSender; i++ {
				k.ScheduleInput(p, model.Time(50+25*i+int(p)), latest{ID: fmt.Sprintf("%v-%d", p, i)})
			}
		}
		maxPending := 0
		gotAll := func() bool {
			for _, q := range model.Procs(n) {
				for _, p := range model.Procs(n) {
					if counts[q][fmt.Sprintf("%v-%d", p, perSender-1)] == 0 {
						return false
					}
				}
			}
			return true
		}
		k.RunUntil(horizon, func(k *sim.Kernel) bool {
			for _, p := range model.Procs(n) {
				maxPending = max(maxPending, k.Automaton(p).(*retransmit.Automaton).PendingEnvelopes())
			}
			return gotAll()
		})

		if k.MessagesLost() == 0 {
			t.Fatalf("seed %d: no losses — the network exercised nothing", seed)
		}
		if !gotAll() {
			t.Errorf("seed %d: some receiver lacks a sender's last payload at t=%d", seed, k.Now())
		}
		if maxPending != 0 || w.data != 0 || w.acks != 0 {
			t.Errorf("seed %d: %d pending at most, %d envelopes, %d acks; want none", seed, maxPending, w.data, w.acks)
		}
		for _, q := range model.Procs(n) {
			if s := k.Automaton(q).(*retransmit.Automaton).DedupStreams(); s != 0 {
				t.Errorf("seed %d: %v tracks %d dedup streams, want 0", seed, q, s)
			}
		}
	}
}
