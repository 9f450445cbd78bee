package runtime

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/retransmit"
)

func init() {
	RegisterWireType(retransmit.Data{})
	RegisterWireType(retransmit.Ack{})
}

// TestCapBackoff pins the writer's cross-connection backoff curve: doubling
// from the base, capped at the max.
func TestCapBackoff(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	want := []time.Duration{10, 10, 20, 40, 80, 80, 80}
	for streak, w := range want {
		if got := capBackoff(base, max, streak); got != w*time.Millisecond {
			t.Errorf("capBackoff(streak=%d) = %v, want %v", streak, got, w*time.Millisecond)
		}
	}
}

// flapListener accepts connections and resets them immediately (SO_LINGER 0
// sends a RST rather than a graceful FIN), counting every accept — the
// flapping-peer regime: dials SUCCEED, so dial-level backoff never engages,
// and only the writer's cross-connection failure streak stands between the
// transport and a tight dial/reset/redial loop.
type flapListener struct {
	ln      net.Listener
	accepts atomic.Int64
	done    chan struct{}
}

func newFlapListener(t *testing.T) *flapListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("flap listen: %v", err)
	}
	fl := &flapListener{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(fl.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fl.accepts.Add(1)
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close(); <-fl.done })
	return fl
}

// TestTCPWriterBacksOffAcrossFlappingConnections: against a peer that
// accepts and immediately resets every connection, the writer must pace its
// redials by the capped backoff instead of burning one dial per queued
// frame. The regression this pins: the pre-hardening writer reset its
// backoff whenever a dial succeeded, so a flapping peer saw a reconnection
// attempt for every frame sent — hundreds in this test's window — where the
// backoff bounds it near windowMs/backoffMs.
func TestTCPWriterBacksOffAcrossFlappingConnections(t *testing.T) {
	flap := newFlapListener(t)
	selfLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	selfAddr := selfLn.Addr().String()
	selfLn.Close()
	tr, err := retryBind(TCPConfig{
		Self: 1,
		Peers: map[model.ProcID]string{
			1: selfAddr,
			2: flap.ln.Addr().String(),
		},
		RedialBackoff:    20 * time.Millisecond,
		MaxRedialBackoff: 160 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer tr.Close()

	const window = 600 * time.Millisecond
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		_ = tr.Send(Frame{From: 1, To: 2, Payload: testPayload{K: 1}})
		time.Sleep(time.Millisecond)
	}
	accepts := flap.accepts.Load()
	if accepts == 0 {
		t.Fatal("writer never dialed the flapping peer")
	}
	// ~600 frames were queued; an unthrottled writer redials at frame rate
	// (hundreds of accepts). The 20ms base backoff bounds it near 30; allow
	// generous scheduler slack.
	if accepts > 100 {
		t.Fatalf("flapping peer saw %d connection attempts in %v; the writer is redialing in a tight loop", accepts, window)
	}
}

// cutProxy is a chaos TCP proxy that forwards bytes to a real backend but
// RESETS the connection after a seeded byte budget — deliberately cutting
// mid-frame (including inside the 4-byte length prefix) to exercise the
// receiver's partial-frame handling.
type cutProxy struct {
	ln      net.Listener
	backend string
	rng     *rand.Rand
	mu      sync.Mutex
	cuts    atomic.Int64
	wg      sync.WaitGroup
}

func newCutProxy(t *testing.T, backend string, seed int64) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &cutProxy{ln: ln, backend: backend, rng: rand.New(rand.NewSource(seed))}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go p.serve(conn)
		}
	}()
	t.Cleanup(func() { ln.Close(); p.wg.Wait() })
	return p
}

// budget draws the next connection's byte allowance: small enough to cut
// each connection within a few flushes, and at an offset that lands inside
// a frame almost always.
func (p *cutProxy) budget() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return 64 + p.rng.Int63n(900)
}

func (p *cutProxy) serve(client net.Conn) {
	defer p.wg.Done()
	defer client.Close()
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer backend.Close()
	// Only the client→backend direction carries frames (the transport's
	// writer connections are unidirectional); cut after the byte budget.
	n, _ := io.CopyN(backend, client, p.budget())
	_ = n
	p.cuts.Add(1)
	if tc, ok := client.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	if tc, ok := backend.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
}

// chatAutomaton broadcasts every input and records every distinct payload it
// receives — the minimal protocol for exercising the retransmission layer
// end-to-end over a hostile wire.
type chatAutomaton struct {
	self model.ProcID
	mu   sync.Mutex
	got  map[string]int
}

func (c *chatAutomaton) Init(model.Context) {}
func (c *chatAutomaton) Input(ctx model.Context, in any) {
	ctx.Broadcast(in)
}
func (c *chatAutomaton) Recv(_ model.Context, _ model.ProcID, payload any) {
	p, ok := payload.(testPayload)
	if !ok {
		p = testPayload{S: "CORRUPT(wrong type)"}
	}
	c.mu.Lock()
	c.got[p.S]++
	c.mu.Unlock()
}
func (c *chatAutomaton) Tick(model.Context) {}

// TestTCPReconnectUnderMidFrameResets: a proxy cuts the p1→p2 connection
// after seeded byte budgets — mid-frame, mid-length-prefix — over and over
// while p1 streams retransmit-wrapped broadcasts. Two properties:
//
//  1. No corrupted frame is EVER delivered: a truncated or garbled frame
//     must fail the length-prefix/body decode and kill the connection, never
//     surface to the automaton (every payload p2 receives is one p1 sent).
//  2. The retransmission layer heals every gap: despite each connection
//     dying within ~a few frames, every payload eventually reaches p2
//     exactly once.
func TestTCPReconnectUnderMidFrameResets(t *testing.T) {
	// Real endpoint addresses.
	addrs := make(map[model.ProcID]string, 2)
	var reserved []net.Listener
	for i := 1; i <= 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[model.ProcID(i)] = ln.Addr().String()
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}
	proxy := newCutProxy(t, addrs[2], 1234)

	// p1 dials p2 THROUGH the proxy; p2 dials p1 directly (acks flow back on
	// p2's own writer connections, unmolested — the cut link is p1→p2).
	p1Peers := map[model.ProcID]string{1: addrs[1], 2: proxy.ln.Addr().String()}
	p2Peers := map[model.ProcID]string{1: addrs[1], 2: addrs[2]}
	mk := func(self model.ProcID, peers map[model.ProcID]string) *TCPTransport {
		tr, err := retryBind(TCPConfig{
			Self: self, Peers: peers,
			RedialBackoff: 2 * time.Millisecond, MaxRedialBackoff: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("bind %v: %v", self, err)
		}
		return tr
	}
	tr1, tr2 := mk(1, p1Peers), mk(2, p2Peers)

	autos := make(map[model.ProcID]*chatAutomaton)
	var mu sync.Mutex
	factory := func(p model.ProcID, n int) model.Automaton {
		a := &chatAutomaton{self: p, got: make(map[string]int)}
		mu.Lock()
		autos[p] = a
		mu.Unlock()
		return a
	}
	wrapped := retransmit.Wrap(factory, retransmit.Options{Seed: 5})
	opts := Options{TickInterval: 2 * time.Millisecond}
	proc1 := NewProc(tr1, wrapped, opts)
	proc2 := NewProc(tr2, wrapped, opts)
	defer func() {
		proc1.Stop()
		proc2.Stop()
		<-proc1.Done()
		<-proc2.Done()
	}()

	const msgs = 60
	want := make(map[string]bool, msgs)
	for i := 0; i < msgs; i++ {
		m := "msg-" + time.Duration(i).String()
		want[m] = true
		if !proc1.Submit(testPayload{K: i, S: m}) {
			t.Fatalf("submit %d failed", i)
		}
		time.Sleep(2 * time.Millisecond)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		mu.Lock()
		a2 := autos[2]
		mu.Unlock()
		var missing int
		var corrupt []string
		if a2 != nil {
			a2.mu.Lock()
			missing = 0
			for m := range want {
				if a2.got[m] == 0 {
					missing++
				}
			}
			for g, count := range a2.got {
				if !want[g] {
					corrupt = append(corrupt, g)
				}
				if count > 1 {
					corrupt = append(corrupt, g+" (delivered twice)")
				}
			}
			a2.mu.Unlock()
		} else {
			missing = msgs
		}
		if len(corrupt) > 0 {
			t.Fatalf("corrupted or duplicated deliveries surfaced to the automaton: %v", corrupt)
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retransmission never healed the cut link: %d of %d payloads missing after %d connection cuts",
				missing, msgs, proxy.cuts.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if proxy.cuts.Load() == 0 {
		t.Fatal("the proxy never cut a connection; the test exercised nothing")
	}

	// Type descriptors cross each connection afresh. Once the connection
	// live at this point has been cut too, a payload of the types every
	// earlier connection carried must still decode on the one after it.
	cuts := proxy.cuts.Load()
	waitUntil(t, 10*time.Second, func() bool { return proxy.cuts.Load() > cuts })
	const last = "after-reconnect"
	if !proc1.Submit(testPayload{K: msgs, S: last}) {
		t.Fatal("submit after reconnect failed")
	}
	mu.Lock()
	a2 := autos[2]
	mu.Unlock()
	waitUntil(t, 60*time.Second, func() bool {
		a2.mu.Lock()
		defer a2.mu.Unlock()
		return a2.got[last] > 0
	})
}
