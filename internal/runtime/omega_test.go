package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// The heartbeat Ω's liveness rule and cadence: any frame from a peer proves
// it alive, and a Heartbeat goes out only at a beat (every LeaderTimeout/4)
// into a link no frame went to since the previous beat. The bounds below are
// wall-clock ones with wide slack, since these loops share a small host with
// other work.

// tapTransport wraps a Transport and records, per destination, the wall time
// of every frame sent and how many of them were Heartbeats. With dropBeats
// set it swallows every Heartbeat instead of sending it.
type tapTransport struct {
	Transport
	dropBeats bool

	mu    sync.Mutex
	sends map[model.ProcID][]time.Time
	beats map[model.ProcID]int
}

func (t *tapTransport) Send(f Frame) error {
	_, beat := f.Payload.(Heartbeat)
	t.mu.Lock()
	t.sends[f.To] = append(t.sends[f.To], time.Now())
	if beat {
		t.beats[f.To]++
	}
	t.mu.Unlock()
	if beat && t.dropBeats {
		return nil
	}
	return t.Transport.Send(f)
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

// An idle cluster still hears every peer well within the timeout: each
// directed link carries a heartbeat at least every LeaderTimeout/2, and the
// beats are paced by the timeout, not by the tick.
func TestOmegaIdleLinksBeatWithinHalfTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const n = 3
	procs, taps := omegaCluster(t, n, func(model.ProcID, int) model.Automaton { return idleAuto{} },
		Options{LeaderTimeout: timeout}, 0)
	waitLeader(t, 5*time.Second, procs, 1)

	from := time.Now()
	sentBefore := make([]int64, n)
	for i, p := range procs {
		sentBefore[i] = p.HeartbeatsSent()
	}
	time.Sleep(800 * time.Millisecond)
	to := time.Now()

	const slack = 50 * time.Millisecond
	for i, tap := range taps {
		for _, q := range model.Procs(n) {
			if q == model.ProcID(i+1) {
				continue
			}
			if gap := tap.maxGap(q, from, to); gap > timeout/2+slack {
				t.Errorf("link p%d→%v silent for %v, want ≤ %v", i+1, q, gap, timeout/2+slack)
			}
		}
		// One beat per LeaderTimeout/4 per peer, plus one for the edges of
		// the window: a tick-paced heartbeat would send 50× as many.
		beats := procs[i].HeartbeatsSent() - sentBefore[i]
		limit := int64(n-1) * (int64(to.Sub(from)/(timeout/4)) + 2)
		if beats > limit {
			t.Errorf("p%d sent %d heartbeats in %v, want ≤ %d", i+1, beats, to.Sub(from), limit)
		}
	}
	for _, p := range procs {
		if p.Leader() != 1 {
			t.Errorf("%v trusts %v, want p1", p.Self(), p.Leader())
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

// When the leader stops, the others move to p2 within the timeout plus the
// two beats a link can stay silent for.
func TestOmegaFailoverWithinTimeoutAndTwoBeats(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const n = 3
	procs, _ := omegaCluster(t, n, func(model.ProcID, int) model.Automaton { return idleAuto{} },
		Options{LeaderTimeout: timeout}, 0)
	waitLeader(t, 5*time.Second, procs, 1)

	start := time.Now()
	procs[0].Stop()
	const slack = 150 * time.Millisecond
	bound := timeout + 2*(timeout/4) + slack
	waitLeader(t, 5*time.Second, procs[1:], 2)
	if took := time.Since(start); took > bound {
		t.Errorf("p2 and p3 moved to p2 after %v, want ≤ %v", took, bound)
	}
}
