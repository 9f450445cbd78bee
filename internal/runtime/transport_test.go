package runtime

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

func init() {
	// The wire vocabulary of the tests in this file.
	RegisterWireType(etob.UpdateMsg{})
	RegisterWireType(etob.PromoteMsg{})
	RegisterWireType(testPayload{})
}

type testPayload struct {
	K int
	S string
}

func (testPayload) WireTag() wire.Tag { return wire.TagTest }

func (p testPayload) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendString(wire.AppendInt(b, int64(p.K)), p.S), nil
}

func (testPayload) ReadWire(r *wire.Reader) any { return testPayload{K: int(r.Int()), S: r.Str()} }

// tcpCluster builds n connected TCPTransport endpoints on loopback. Ports are
// reserved by binding throwaway listeners first (every endpoint needs the
// full peer map up front), then released just before the real binds.
func tcpCluster(t *testing.T, n int, cfg func(*TCPConfig)) []*TCPTransport {
	t.Helper()
	peerAddrs := make(map[model.ProcID]string, n)
	reserved := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		peerAddrs[model.ProcID(i+1)] = ln.Addr().String()
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}
	eps := make([]*TCPTransport, n)
	for i := 0; i < n; i++ {
		p := model.ProcID(i + 1)
		c := TCPConfig{Self: p, Peers: clonePeers(peerAddrs)}
		if cfg != nil {
			cfg(&c)
		}
		ep, err := retryBind(c)
		if err != nil {
			t.Fatalf("bind %v: %v", p, err)
		}
		eps[i] = ep
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return eps
}

// retryBind absorbs the small race window between releasing a reserved port
// and rebinding it.
func retryBind(c TCPConfig) (*TCPTransport, error) {
	var lastErr error
	for i := 0; i < 100; i++ {
		ep, err := NewTCPTransport(c)
		if err == nil {
			return ep, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, lastErr
}

func clonePeers(m map[model.ProcID]string) map[model.ProcID]string {
	out := make(map[model.ProcID]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// expectFrame waits for one non-heartbeat frame on the endpoint.
func expectFrame(t *testing.T, tr Transport, within time.Duration) Frame {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case f := <-tr.Recv():
			if _, beat := f.Payload.(Heartbeat); beat {
				continue
			}
			return f
		case <-deadline:
			t.Fatalf("no frame within %v", within)
		}
	}
}

// testTransportBasics is the conformance suite every Transport implementation
// must pass: peer addressing, metadata and payload fidelity, and a structural
// error for a destination that is no peer: an unknown process or the sender
// itself (a Proc delivers its own messages).
func testTransportBasics(t *testing.T, eps []Transport) {
	t.Helper()
	want := testPayload{K: 42, S: "hello"}
	if err := eps[0].Send(Frame{From: 1, To: 2, ID: 7, SentAt: 5, Payload: want}); err != nil {
		t.Fatalf("send: %v", err)
	}
	f := expectFrame(t, eps[1], 5*time.Second)
	if f.From != 1 || f.ID != 7 || f.SentAt != 5 {
		t.Fatalf("frame metadata mangled: %+v", f)
	}
	if got, ok := f.Payload.(testPayload); !ok || got != want {
		t.Fatalf("payload mangled: %+v", f.Payload)
	}

	if err := eps[0].Send(Frame{From: 1, To: 1, Payload: want}); err == nil {
		t.Fatal("self-send must error")
	}
	if err := eps[0].Send(Frame{From: 1, To: model.ProcID(len(eps) + 5), Payload: want}); err == nil {
		t.Fatal("send to unknown peer must error")
	}
}

func TestChanTransportBasics(t *testing.T) {
	nw := NewChanNetwork(3, ChanNetworkConfig{})
	defer nw.Close()
	testTransportBasics(t, []Transport{nw.Endpoint(1), nw.Endpoint(2), nw.Endpoint(3)})
}

func TestTCPTransportBasics(t *testing.T) {
	raw := tcpCluster(t, 3, nil)
	testTransportBasics(t, []Transport{raw[0], raw[1], raw[2]})
}

// A graph-carrying ETOB update survives the TCP round trip intact: the
// protocol's richest message, whose body is the graph's positional wire
// form.
func TestTCPCarriesCausalGraph(t *testing.T) {
	eps := tcpCluster(t, 2, nil)
	a := etob.New(1, 2)
	ctx := &collectCtx{n: 2}
	a.BroadcastETOB(ctx, "m1", nil)
	a.BroadcastETOB(ctx, "m2", []string{"m1"})
	var upd etob.UpdateMsg
	found := false
	for i := len(ctx.sends) - 1; i >= 0; i-- {
		if u, ok := ctx.sends[i].Payload.(etob.UpdateMsg); ok {
			upd, found = u, true
			break
		}
	}
	if !found {
		t.Fatal("no UpdateMsg among sends")
	}
	if err := eps[0].Send(Frame{From: 1, To: 2, Payload: upd}); err != nil {
		t.Fatalf("send: %v", err)
	}
	f := expectFrame(t, eps[1], 5*time.Second)
	got, ok := f.Payload.(etob.UpdateMsg)
	if !ok {
		t.Fatalf("payload type mangled: %T", f.Payload)
	}
	if got.CG == nil || got.CG.Len() != 2 || !got.CG.Has("m1") || !got.CG.Has("m2") {
		t.Fatalf("graph mangled: %v", got.CG)
	}
	if deps := got.CG.Deps("m2"); len(deps) != 1 || deps[0] != "m1" {
		t.Fatalf("edges mangled: deps(m2) = %v", deps)
	}
	// The decoded graph must be independently usable (index rebuilds).
	got.CG.Add("m3", []string{"m2"})
	if !got.CG.Has("m3") {
		t.Fatal("decoded graph not mutable")
	}
}

// collectCtx is a minimal model.Context collecting sends.
type collectCtx struct {
	n     int
	sends []trace.SendRec
}

var _ model.Context = (*collectCtx)(nil)

func (c *collectCtx) Self() model.ProcID { return 1 }
func (c *collectCtx) N() int             { return c.n }
func (c *collectCtx) Now() model.Time    { return 0 }
func (c *collectCtx) FD() any            { return model.ProcID(1) }
func (c *collectCtx) Send(to model.ProcID, payload any) {
	c.sends = append(c.sends, trace.SendRec{To: to, Payload: payload})
}
func (c *collectCtx) Broadcast(payload any) {
	for i := 1; i <= c.n; i++ {
		c.Send(model.ProcID(i), payload)
	}
}
func (c *collectCtx) Output(any) {}

// TCP reconnection: kill a receiver endpoint mid-stream, bring a new one up
// on the same address, and confirm frames flow again — the transport's
// redial loop heals the link without any sender-side intervention.
func TestTCPReconnect(t *testing.T) {
	eps := tcpCluster(t, 2, func(c *TCPConfig) {
		c.RedialBackoff = 5 * time.Millisecond
		c.MaxRedialBackoff = 50 * time.Millisecond
	})
	if err := eps[0].Send(Frame{From: 1, To: 2, Payload: testPayload{K: 1}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	expectFrame(t, eps[1], 5*time.Second)

	// Kill p2's endpoint and restart it on the same address.
	peers := clonePeers(eps[1].cfg.Peers)
	eps[1].Close()
	revived, err := retryBind(TCPConfig{
		Self: 2, Peers: peers,
		RedialBackoff: 5 * time.Millisecond, MaxRedialBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer revived.Close()

	// Frames sent while the peer was down are lost (at-most-once); keep
	// sending until the revived endpoint hears one.
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = eps[0].Send(Frame{From: 1, To: 2, Payload: testPayload{K: 2}})
		case f := <-revived.Recv():
			if p, ok := f.Payload.(testPayload); ok && p.K == 2 {
				return // healed
			}
		case <-deadline:
			t.Fatal("link did not heal after peer restart")
		}
	}
}

// Inbox overflow must drop-with-counter, not block the sender — the explicit
// overflow contract of Options.InboxSize.
func TestChanInboxOverflowDropsAndCounts(t *testing.T) {
	var dropped atomic.Int64
	nw := NewChanNetwork(2, ChanNetworkConfig{
		InboxSize: 4,
		OnDrop:    func(from, to model.ProcID, payload any) { dropped.Add(1) },
	})
	defer nw.Close()
	// Nobody drains endpoint 2: the first 4 sends buffer, the rest must
	// return immediately (not block) and count as drops.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = nw.Endpoint(1).Send(Frame{From: 1, To: 2, Payload: testPayload{K: i}})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender blocked on a full inbox")
	}
	if got := nw.Endpoint(2).Dropped(); got != 96 {
		t.Fatalf("dropped = %d, want 96", got)
	}
	if got := dropped.Load(); got != 96 {
		t.Fatalf("OnDrop fired %d times, want 96", got)
	}
}

// The drop counter is surfaced through the Cluster and through any Observer
// that also implements DropObserver.
func TestClusterSurfacesDrops(t *testing.T) {
	obs := &dropRecorder{}
	c := NewCluster(2, floodFactory(), Options{
		InboxSize:     2,
		Observer:      obs,
		TickInterval:  time.Millisecond,
		LeaderTimeout: 500 * time.Millisecond,
	})
	defer c.Stop()
	waitUntil(t, 5*time.Second, func() bool { return c.Dropped() > 0 })
	if obs.drops.Load() == 0 {
		t.Fatal("DropObserver not notified")
	}
}

type dropRecorder struct {
	sim.NopObserver
	drops atomic.Int64
}

func (d *dropRecorder) OnDrop(from, to model.ProcID, payload any) { d.drops.Add(1) }

// floodFactory sends every peer a burst of frames on every tick,
// overwhelming a tiny inbox.
func floodFactory() model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return &flooder{self: p, n: n} }
}

// flooder's burst per peer per tick: more than a 2-frame inbox holds.
const floodBurst = 8

type flooder struct {
	self model.ProcID
	n    int
}

func (f *flooder) Init(model.Context)                    {}
func (f *flooder) Recv(model.Context, model.ProcID, any) {}
func (f *flooder) Input(model.Context, any)              {}
func (f *flooder) Tick(ctx model.Context) {
	for _, q := range model.Procs(f.n) {
		for i := 0; q != f.self && i < floodBurst; i++ {
			ctx.Send(q, testPayload{K: i})
		}
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", d)
}
