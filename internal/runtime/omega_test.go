package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// The heartbeat Ω's liveness rule and cadence: any frame from a peer proves
// it alive, and a Heartbeat goes out only to a peer that reads it (a
// self-trusting process beats higher IDs, a follower its leader), and only
// into a link that has carried no frame for half its reader's window
// (LeaderTimeout/2 for a self-trusting sender, DegradedAfter/2 for a
// follower). The bounds below are wall-clock ones with wide slack, since
// these loops share a small host with other work.

// tapTransport wraps a Transport and records, per destination, the wall time
// of every frame sent and how many of them were Heartbeats. With dropBeats
// set it swallows every Heartbeat instead of sending it, and it swallows
// every frame to a peer it was told to cut.
type tapTransport struct {
	Transport
	dropBeats bool

	mu    sync.Mutex
	sends map[model.ProcID][]time.Time
	beats map[model.ProcID]int
	cuts  map[model.ProcID]bool
}

func (t *tapTransport) Send(f Frame) error {
	_, beat := f.Payload.(Heartbeat)
	t.mu.Lock()
	t.sends[f.To] = append(t.sends[f.To], time.Now())
	if beat {
		t.beats[f.To]++
	}
	cut := t.cuts[f.To]
	t.mu.Unlock()
	if cut || beat && t.dropBeats {
		return nil
	}
	return t.Transport.Send(f)
}

// cut loses every later frame to q.
func (t *tapTransport) cut(q model.ProcID) {
	t.mu.Lock()
	t.cuts[q] = true
	t.mu.Unlock()
}

// maxGap is the longest wall interval in [from, to] with no frame sent to q.
func (t *tapTransport) maxGap(q model.ProcID, from, to time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var gap time.Duration
	last := from
	for _, at := range t.sends[q] {
		if at.Before(from) || at.After(to) {
			continue
		}
		gap = max(gap, at.Sub(last))
		last = at
	}
	return max(gap, to.Sub(last))
}

func (t *tapTransport) beatsTo(q model.ProcID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beats[q]
}

// sendsTo returns the wall times of every frame sent to q so far.
func (t *tapTransport) sendsTo(q model.ProcID) []time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Time(nil), t.sends[q]...)
}

// omegaCluster starts n Procs over a ChanNetwork, each endpoint tapped;
// dropBeatsFrom names a process whose Heartbeats are all lost (0: none).
func omegaCluster(t *testing.T, n int, factory model.AutomatonFactory, opts Options, dropBeatsFrom model.ProcID) ([]*Proc, []*tapTransport) {
	t.Helper()
	nw := NewChanNetwork(n, ChanNetworkConfig{})
	var procs []*Proc
	var taps []*tapTransport
	for _, p := range model.Procs(n) {
		tap := &tapTransport{
			Transport: nw.Endpoint(p),
			dropBeats: p == dropBeatsFrom,
			sends:     map[model.ProcID][]time.Time{},
			beats:     map[model.ProcID]int{},
			cuts:      map[model.ProcID]bool{},
		}
		taps = append(taps, tap)
		procs = append(procs, NewProc(tap, factory, opts))
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
		for _, p := range procs {
			<-p.Done()
		}
		nw.Close()
	})
	return procs, taps
}

// idleAuto sends nothing: its links carry heartbeats only.
type idleAuto struct{}

func (idleAuto) Init(model.Context)                    {}
func (idleAuto) Recv(model.Context, model.ProcID, any) {}
func (idleAuto) Input(model.Context, any)              {}
func (idleAuto) Tick(model.Context)                    {}

// quietAuto is idleAuto as a model.Waker: no tick of it is ever due, so its
// loop wakes only for beats and Ω changes.
type quietAuto struct{ idleAuto }

func (quietAuto) IdleTicks(any) int64 { return -1 }

func quietFactory(model.ProcID, int) model.Automaton { return quietAuto{} }

// chattyAuto sends every peer a protocol frame at every tick when its
// process is in talkers (nil: every process talks).
type chattyAuto struct {
	self    model.ProcID
	talkers map[model.ProcID]bool
}

func (a *chattyAuto) Init(model.Context)                    {}
func (a *chattyAuto) Recv(model.Context, model.ProcID, any) {}
func (a *chattyAuto) Input(model.Context, any)              {}
func (a *chattyAuto) Tick(ctx model.Context) {
	if a.talkers != nil && !a.talkers[a.self] {
		return
	}
	for _, q := range model.Procs(ctx.N()) {
		if q != a.self {
			ctx.Send(q, testPayload{})
		}
	}
}

func chattyFactory(talkers ...model.ProcID) model.AutomatonFactory {
	var set map[model.ProcID]bool
	if len(talkers) > 0 {
		set = map[model.ProcID]bool{}
		for _, p := range talkers {
			set[p] = true
		}
	}
	return func(p model.ProcID, _ int) model.Automaton { return &chattyAuto{self: p, talkers: set} }
}

// waitLeader waits until every listed process outputs want.
func waitLeader(t *testing.T, d time.Duration, procs []*Proc, want model.ProcID) {
	t.Helper()
	waitUntil(t, d, func() bool {
		for _, p := range procs {
			if p.Leader() != want {
				return false
			}
		}
		return true
	})
}

// An idle cluster beats only where a beat is read, O(n) links in all: the
// leader beats every higher ID within LeaderTimeout/2, each follower beats
// the leader within DegradedAfter/2, followers never beat each other, and
// the cluster's heartbeats per second match that model.
func TestOmegaIdleHeartbeatsAreLinearInN(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const degraded = 200 * time.Millisecond
	const window = 800 * time.Millisecond
	for _, n := range []int{3, 5, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			procs, taps := omegaCluster(t, n, quietFactory,
				Options{LeaderTimeout: timeout, DegradedAfter: degraded}, 0)
			waitLeader(t, 5*time.Second, procs, 1)
			time.Sleep(degraded / 2) // past every follower's boot-time beats

			beatsBefore := make([][]int, n)
			sentBefore := make([]int64, n)
			for i, p := range procs {
				sentBefore[i] = p.HeartbeatsSent()
				for _, q := range model.Procs(n) {
					beatsBefore[i] = append(beatsBefore[i], taps[i].beatsTo(q))
				}
			}
			from := time.Now()
			time.Sleep(window)
			to := time.Now()

			const slack = 50 * time.Millisecond
			var sent int64
			for i, tap := range taps {
				p := model.ProcID(i + 1)
				sent += procs[i].HeartbeatsSent() - sentBefore[i]
				for _, q := range model.Procs(n) {
					var bound time.Duration
					switch {
					case q == p:
						continue
					case p == 1:
						bound = timeout/2 + slack
					case q == 1:
						bound = degraded/2 + slack
					default:
						if got := tap.beatsTo(q) - beatsBefore[i][q-1]; got != 0 {
							t.Errorf("follower link %v→%v carried %d heartbeats, want 0", p, q, got)
						}
						continue
					}
					if gap := tap.maxGap(q, from, to); gap > bound {
						t.Errorf("link %v→%v silent for %v, want ≤ %v", p, q, gap, bound)
					}
				}
			}
			// The leader beats n−1 peers every timeout/2 and each of the n−1
			// followers its leader every degraded/2. A late timer only
			// stretches a beat interval, so allow a quarter fewer, and one
			// more beat per link for the window's edges.
			links := float64(n - 1)
			want := links * (float64(to.Sub(from)/(timeout/2)) + float64(to.Sub(from)/(degraded/2)))
			t.Logf("%d heartbeats in %v, model %.0f", sent, to.Sub(from), want)
			if got := float64(sent); got < 0.75*want || got > want+2*links {
				t.Errorf("%.0f heartbeats in %v, want about %.0f", got, to.Sub(from), want)
			}
			for _, p := range procs {
				if p.Leader() != 1 {
					t.Errorf("%v trusts %v, want p1", p.Self(), p.Leader())
				}
			}
		})
	}
}

// A replica that reaches only followers of a leader it cannot reach hears
// nobody: followers beat only their leader, never each other. With the link
// p1↔p3 cut, p3 trusts itself and its PeersHeard, node's degraded-mode
// signal, reads 0, while p2 still hears both. The replica stack runs on top,
// so no protocol frame reaches p3 either.
func TestOmegaReplicaReachingOnlyFollowersHearsNobody(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const n = 3
	procs, taps := omegaCluster(t, n, replicaStack(), Options{LeaderTimeout: timeout}, 0)
	taps[0].cut(3)
	taps[2].cut(1)
	waitUntil(t, 5*time.Second, func() bool {
		return procs[1].Leader() == 1 && procs[2].Leader() == 3 && procs[2].PeersHeard(timeout) == 0
	})
	for deadline := time.Now().Add(4 * timeout); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if got := procs[2].PeersHeard(timeout); got != 0 {
			t.Fatalf("p3 heard %d peers within %v, want 0: a follower beat it", got, timeout)
		}
		if got := procs[1].PeersHeard(timeout); got != 2 {
			t.Fatalf("p2 heard %d peers within %v, want 2", got, timeout)
		}
	}
}

// A link that carries a protocol frame every tick needs no heartbeat: after
// the first beat (one tick in, racing the first tick) none goes out, and Ω
// stays on p1.
func TestOmegaBusyLinksSendNoHeartbeat(t *testing.T) {
	const n = 3
	procs, taps := omegaCluster(t, n, chattyFactory(), Options{
		TickInterval:  2 * time.Millisecond,
		LeaderTimeout: 200 * time.Millisecond,
	}, 0)
	waitLeader(t, 5*time.Second, procs, 1)
	flaps := make([]int64, n)
	for i, p := range procs {
		flaps[i] = p.LeaderFlaps()
	}
	time.Sleep(600 * time.Millisecond)

	for i, tap := range taps {
		for _, q := range model.Procs(n) {
			if q == model.ProcID(i+1) {
				continue
			}
			if got := tap.beatsTo(q); got > 1 {
				t.Errorf("busy link p%d→%v carried %d heartbeats, want at most the first beat's", i+1, q, got)
			}
		}
	}
	for i, p := range procs {
		if p.Leader() != 1 {
			t.Errorf("%v trusts %v, want p1", p.Self(), p.Leader())
		}
		if d := p.LeaderFlaps() - flaps[i]; d != 0 {
			t.Errorf("%v: Ω flapped %d times on a busy cluster", p.Self(), d)
		}
	}
}

// Any frame proves its sender alive. Every Heartbeat p1 sends is lost, but
// p1 sends each peer a protocol frame every tick, so p2 and p3 keep trusting
// it. Under a heartbeat-only liveness rule they would never trust p1.
func TestOmegaProtocolFramesProveLiveness(t *testing.T) {
	const n = 3
	procs, _ := omegaCluster(t, n, chattyFactory(1), Options{
		TickInterval:  2 * time.Millisecond,
		LeaderTimeout: 100 * time.Millisecond,
	}, 1)
	waitLeader(t, 5*time.Second, procs, 1)
	flaps := make([]int64, n)
	for i, p := range procs {
		flaps[i] = p.LeaderFlaps()
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, p := range procs[1:] {
			if got := p.Leader(); got != 1 {
				t.Fatalf("%v stopped trusting p1 (trusts %v) although p1 sends it a frame every tick", p.Self(), got)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, p := range procs {
		if d := p.LeaderFlaps() - flaps[i]; d != 0 {
			t.Errorf("%v: Ω flapped %d times", p.Self(), d)
		}
	}
}

// When the leader stops, the others move to p2 within the timeout, by which
// both have dropped p1, plus half a timeout, the longest a link p2 beats can
// stay silent once it trusts itself. p2 beats a silent link at once, so the
// logged time sits near the timeout.
func TestOmegaFailoverWithinTimeoutPlusHalf(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const n = 3
	procs, _ := omegaCluster(t, n, func(model.ProcID, int) model.Automaton { return idleAuto{} },
		Options{LeaderTimeout: timeout}, 0)
	waitLeader(t, 5*time.Second, procs, 1)

	time.Sleep(timeout / 2) // every boot-time Ω change counted
	flaps := []int64{procs[1].LeaderFlaps(), procs[2].LeaderFlaps()}
	start := time.Now()
	procs[0].Stop()
	const slack = 150 * time.Millisecond
	bound := timeout + timeout/2 + slack
	waitLeader(t, 5*time.Second, procs[1:], 2)
	took := time.Since(start)
	t.Logf("fail-over took %v; Ω changes at p2, p3: %d, %d", took,
		procs[1].LeaderFlaps()-flaps[0], procs[2].LeaderFlaps()-flaps[1])
	if took > bound {
		t.Errorf("p2 and p3 moved to p2 after %v, want ≤ %v", took, bound)
	}
}

// everyKAuto sends every peer a protocol frame at every k-th tick.
type everyKAuto struct {
	idleAuto
	k, ticks int
}

func (a *everyKAuto) Tick(ctx model.Context) {
	if a.ticks++; a.ticks%a.k != 0 {
		return
	}
	for _, q := range model.Procs(ctx.N()) {
		if q != ctx.Self() {
			ctx.Send(q, testPayload{})
		}
	}
}

// A Heartbeat goes into a link only once it has been silent for half its
// reader's window, counted from the link's last frame, not at a point of a
// fixed grid.
func TestOmegaBeatsOnlyAfterHalfWindowOfSilence(t *testing.T) {
	// Every link carries a protocol frame every timeout/3, within half the
	// window, so after boot no link is due a beat. A grid of one beat per
	// timeout/4 that skips a link only when a frame went since its previous
	// beat would find some intervals empty.
	t.Run("frame every third of the window", func(t *testing.T) {
		const n = 3
		const tick = 10 * time.Millisecond
		const timeout = 450 * time.Millisecond
		procs, _ := omegaCluster(t, n, func(model.ProcID, int) model.Automaton {
			return &everyKAuto{k: int(timeout / 3 / tick)}
		}, Options{TickInterval: tick, LeaderTimeout: timeout}, 0)
		waitLeader(t, 5*time.Second, procs, 1)
		time.Sleep(timeout) // past the boot-time beats
		before := make([]int64, n)
		for i, p := range procs {
			before[i] = p.HeartbeatsSent()
		}
		time.Sleep(1500 * time.Millisecond)
		for i, p := range procs {
			if got := p.HeartbeatsSent() - before[i]; got != 0 {
				t.Errorf("%v sent %d heartbeats into links that carry a frame every %v", p.Self(), got, timeout/3)
			}
			if p.Leader() != 1 {
				t.Errorf("%v trusts %v, want p1", p.Self(), p.Leader())
			}
		}
	})

	// p1 sends p2 one frame at t, a quarter window less 75 ms after a beat;
	// its next Heartbeat to p2 goes at t + timeout/2, where a quarter grid
	// would beat at t + timeout/4 + 75 ms.
	t.Run("beat half a window after the last frame", func(t *testing.T) {
		const timeout = 800 * time.Millisecond
		const slack = 50 * time.Millisecond
		var got atomic.Int64
		procs, taps := omegaCluster(t, 2, func(model.ProcID, int) model.Automaton {
			return sendOnInput{got: &got}
		}, Options{LeaderTimeout: timeout}, 0)
		waitLeader(t, 5*time.Second, procs, 1)
		beats := taps[0].beatsTo(2)
		waitUntil(t, 5*time.Second, func() bool { return taps[0].beatsTo(2) > beats })
		sends := taps[0].sendsTo(2)
		time.Sleep(time.Until(sends[len(sends)-1].Add(timeout/4 - 75*time.Millisecond)))

		i := len(taps[0].sendsTo(2))
		procs[0].Submit("send")
		waitUntil(t, 5*time.Second, func() bool { return len(taps[0].sendsTo(2)) >= i+2 })
		sends = taps[0].sendsTo(2)
		if n := taps[0].beatsTo(2) - beats; n != 2 {
			t.Fatalf("p1 sent p2 %d heartbeats around its frame, want 1 before and 1 after", n)
		}
		gap := sends[i+1].Sub(sends[i])
		t.Logf("heartbeat %v after the frame", gap)
		if gap < timeout/2-slack || gap > timeout/2+slack {
			t.Errorf("p1 beat p2 %v after its last frame, want %v ± %v", gap, timeout/2, slack)
		}
	})
}

// A process that trusts itself and has no higher-ID peer beats no link, so
// once its peers are down it takes no timer wake-up at all.
func TestSelfTrustingTopProcessTakesNoBeatWakeups(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const window = time.Second
	procs, _ := omegaCluster(t, 3, quietFactory, Options{LeaderTimeout: timeout}, 0)
	waitLeader(t, 5*time.Second, procs, 1)
	procs[0].Stop()
	procs[1].Stop()
	waitLeader(t, 5*time.Second, procs[2:], 3)
	time.Sleep(timeout / 2) // the wake-up for p2's expiry has run
	w0 := procs[2].Wakeups()
	time.Sleep(window)
	// One per beat would be window/(timeout/4) = 40.
	if wakes := procs[2].Wakeups() - w0; wakes > 1 {
		t.Errorf("p3 woke %d times in %v with no link to beat, want none", wakes, window)
	}
}
