package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// ChanNetwork is the in-process fabric: n ChanTransport endpoints joined by
// buffered channels. It is the reference Transport implementation and the
// fastest one, since frames move by pointer-free channel send with no
// encoding.
type ChanNetwork struct {
	n         int
	inboxSize int
	delay     func(from, to model.ProcID) time.Duration
	onDrop    func(from, to model.ProcID, payload any)

	eps     []*ChanTransport
	pending sync.WaitGroup // delayed deliveries in flight
}

// ChanNetworkConfig tunes a ChanNetwork.
type ChanNetworkConfig struct {
	// InboxSize is the per-endpoint frame buffer (default 8192). A full inbox
	// DROPS incoming frames (counted, reported through OnDrop) instead of
	// blocking the sender: a slow or wedged receiver must not stall its peers
	// mid-broadcast.
	InboxSize int
	// Delay, if non-nil, returns the artificial link delay per frame.
	Delay func(from, to model.ProcID) time.Duration
	// OnDrop, if non-nil, is called for every frame dropped on inbox overflow
	// (from the sender's goroutine or a delayed-delivery timer).
	OnDrop func(from, to model.ProcID, payload any)
}

// NewChanNetwork builds the fabric for an n-process in-process cluster.
func NewChanNetwork(n int, cfg ChanNetworkConfig) *ChanNetwork {
	if n < 2 {
		panic("runtime: ChanNetwork needs at least 2 processes")
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 8192
	}
	nw := &ChanNetwork{n: n, inboxSize: cfg.InboxSize, delay: cfg.Delay, onDrop: cfg.OnDrop}
	for _, p := range model.Procs(n) {
		nw.eps = append(nw.eps, &ChanTransport{
			nw:     nw,
			self:   p,
			inbox:  make(chan Frame, cfg.InboxSize),
			closed: make(chan struct{}),
		})
	}
	return nw
}

// Endpoint returns process p's transport.
func (nw *ChanNetwork) Endpoint(p model.ProcID) *ChanTransport {
	if p < 1 || int(p) > nw.n {
		panic(fmt.Sprintf("runtime: unknown process %v", p))
	}
	return nw.eps[p-1]
}

// Dropped returns the total frames dropped across all endpoints.
func (nw *ChanNetwork) Dropped() int64 {
	var total int64
	for _, ep := range nw.eps {
		total += ep.Dropped()
	}
	return total
}

// Close closes every endpoint and waits for delayed deliveries to settle.
func (nw *ChanNetwork) Close() {
	for _, ep := range nw.eps {
		_ = ep.Close()
	}
	nw.pending.Wait()
}

// ChanTransport is one endpoint of a ChanNetwork.
type ChanTransport struct {
	nw      *ChanNetwork
	self    model.ProcID
	inbox   chan Frame
	closed  chan struct{}
	once    sync.Once
	dropped atomic.Int64
}

var _ Transport = (*ChanTransport)(nil)

// Self implements Transport.
func (t *ChanTransport) Self() model.ProcID { return t.self }

// N implements Transport.
func (t *ChanTransport) N() int { return t.nw.n }

// Recv implements Transport.
func (t *ChanTransport) Recv() <-chan Frame { return t.inbox }

// Dropped implements Transport.
func (t *ChanTransport) Dropped() int64 { return t.dropped.Load() }

// Close implements Transport. Frames sent to a closed endpoint are silently
// discarded (the crash semantics of the model: messages to a crashed process
// are lost, not an overflow condition).
func (t *ChanTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// Send implements Transport: route the frame to the peer's inbox, applying
// the fabric's artificial delay if any.
func (t *ChanTransport) Send(f Frame) error {
	to := f.To
	if to < 1 || int(to) > t.nw.n || to == t.self {
		return errNotPeer(t.self, to)
	}
	target := t.nw.eps[to-1]
	var d time.Duration
	if t.nw.delay != nil {
		d = t.nw.delay(t.self, to)
	}
	if d <= 0 {
		target.offer(f)
		return nil
	}
	t.nw.pending.Add(1)
	time.AfterFunc(d, func() {
		defer t.nw.pending.Done()
		target.offer(f)
	})
	return nil
}

// offer enqueues a frame without ever blocking: closed endpoints discard
// silently (crash semantics), full inboxes drop-with-counter (explicit
// overflow semantics — see Transport's contract).
func (t *ChanTransport) offer(f Frame) {
	select {
	case <-t.closed:
		return
	default:
	}
	select {
	case t.inbox <- f:
	case <-t.closed:
	default:
		t.dropped.Add(1)
		if t.nw.onDrop != nil {
			t.nw.onDrop(f.From, t.self, f.Payload)
		}
	}
}
