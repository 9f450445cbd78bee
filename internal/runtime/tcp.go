package runtime

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

func init() { wire.Register(Heartbeat{}) }

// WireTag implements wire.Message.
func (Heartbeat) WireTag() wire.Tag { return wire.TagHeartbeat }

// AppendWire implements wire.Message: a heartbeat has an empty body.
func (Heartbeat) AppendWire(b []byte) ([]byte, error) { return b, nil }

// ReadWire implements wire.Message.
func (Heartbeat) ReadWire(*wire.Reader) any { return Heartbeat{} }

// RegisterWireType registers a payload type with the frame codec. v must
// implement wire.Message. The protocol packages register their own wire
// types when they are linked in, so only types defined elsewhere (in tests,
// say) need this; registering a type again does nothing.
func RegisterWireType(v any) {
	m, ok := v.(wire.Message)
	if !ok {
		panic(fmt.Sprintf("runtime: %T does not implement wire.Message", v))
	}
	wire.Register(m)
}

// maxFrameBytes bounds a single frame (defensive: a corrupt length prefix
// must not allocate unbounded memory).
const maxFrameBytes = 64 << 20

var (
	errCorruptFrame  = errors.New("runtime: corrupt frame stream")
	errFrameTooLarge = errors.New("runtime: frame exceeds the size bound")
)

// AppendFrame appends f to b as one self-contained frame: a 4-byte
// big-endian length, then the body
//
//	frame = uvarint(From) uvarint(To) varint(ID) varint(SentAt) payload
//
// where payload is the tagged wire form of f.Payload (see package wire). No
// frame depends on another, so a frame that fails to encode costs only
// itself: on error b comes back as it was.
func AppendFrame(b []byte, f Frame) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length placeholder
	b = wire.AppendUint(b, uint64(f.From))
	b = wire.AppendUint(b, uint64(f.To))
	b = wire.AppendInt(b, f.ID)
	b = wire.AppendInt(b, int64(f.SentAt))
	b, err := wire.AppendPayload(b, f.Payload)
	size := len(b) - start - 4
	if err == nil && size > maxFrameBytes {
		err = errFrameTooLarge
	}
	if err != nil {
		return b[:start], err
	}
	binary.BigEndian.PutUint32(b[start:], uint32(size))
	return b, nil
}

// FrameDecoder reads the frames AppendFrame wrote, one at a time.
type FrameDecoder struct {
	r      *bufio.Reader
	lenBuf [4]byte
	body   []byte      // one frame's body; reused, since nothing decoded aliases it
	rd     wire.Reader // reused, so a decode allocates only what it returns
}

// NewFrameDecoder reads frames from r.
func NewFrameDecoder(r io.Reader) *FrameDecoder {
	return &FrameDecoder{r: bufio.NewReader(r)}
}

// Next reads and decodes the next frame. Any error — a read error, a length
// of zero or over maxFrameBytes, a malformed body, or one with bytes left
// over — leaves the decoder unusable.
func (d *FrameDecoder) Next() (Frame, error) {
	if _, err := io.ReadFull(d.r, d.lenBuf[:]); err != nil {
		return Frame{}, err
	}
	size := int(binary.BigEndian.Uint32(d.lenBuf[:]))
	if size == 0 || size > maxFrameBytes {
		return Frame{}, errCorruptFrame
	}
	// The buffer grows with the bytes that arrive, not with the length the
	// prefix claims, so a corrupt prefix cannot allocate maxFrameBytes.
	body := d.body[:0]
	for len(body) < size {
		chunk := min(size-len(body), 64<<10)
		body = slices.Grow(body, chunk)
		k, err := io.ReadFull(d.r, body[len(body):len(body)+chunk])
		body = body[:len(body)+k]
		if err != nil {
			return Frame{}, err
		}
	}
	d.body = body
	r := &d.rd
	r.Reset(body)
	f := Frame{
		From:   model.ProcID(r.Uvarint()),
		To:     model.ProcID(r.Uvarint()),
		ID:     r.Int(),
		SentAt: model.Time(r.Int()),
	}
	f.Payload = r.Payload()
	if err := r.Done(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// maxCoalescedFrames bounds how many queued frames one writer wakeup drains
// into a single connection write (bounds the flush buffer; the remainder just
// rides the next wakeup).
const maxCoalescedFrames = 128

// TCPConfig configures one process's TCPTransport endpoint.
type TCPConfig struct {
	// Self is this process.
	Self model.ProcID
	// Peers maps every process of the cluster — Self included — to its
	// transport address (host:port). Self's entry is the address this
	// endpoint listens on.
	Peers map[model.ProcID]string
	// InboxSize is the received-frame buffer (default 8192); overflow drops
	// with a counter, like every Transport.
	InboxSize int
	// OutboxSize is the per-peer outbound queue (default 1024). When a peer
	// is down or slow, frames beyond the queue are dropped and counted —
	// never blocking the replica's event loop.
	OutboxSize int
	// DialTimeout bounds one connection attempt (default 500ms).
	DialTimeout time.Duration
	// RedialBackoff is the initial pause after a failed dial, doubling up to
	// MaxRedialBackoff (defaults 25ms and 1s). The writer keeps redialing
	// for as long as the endpoint lives, so a restarted peer is picked up
	// automatically — reconnection is the transport's job, recovering the
	// frames lost meanwhile is the retransmission layer's.
	RedialBackoff    time.Duration
	MaxRedialBackoff time.Duration
	// OnDrop, if non-nil, hears about every dropped frame.
	OnDrop func(from, to model.ProcID, payload any)
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.InboxSize <= 0 {
		c.InboxSize = 8192
	}
	if c.OutboxSize <= 0 {
		c.OutboxSize = 1024
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 500 * time.Millisecond
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 25 * time.Millisecond
	}
	if c.MaxRedialBackoff <= 0 {
		c.MaxRedialBackoff = time.Second
	}
	return c
}

// TCPTransport is the wire transport: each process is its own OS process (or
// at least its own listener), and frames travel over per-peer TCP
// connections in the typed binary form of AppendFrame. Writer goroutines own
// one reconnecting connection per peer, sharing a single net.Dialer; readers
// accept any number of inbound connections and funnel decoded frames into
// the inbox.
//
// Every frame is self-contained: a length prefix, the link addressing, and
// the payload's tag and body. No frame depends on the ones before it, so a
// redial needs no handshake, a partially written frame fails only the old
// connection's decode, and a frame that fails to encode is dropped alone.
// The tags are fixed constants (package wire), so separately built replicas
// agree on them; a payload type whose tag a peer does not know ends that
// connection at the peer.
//
// Delivery is at-most-once — see the Transport contract for why replica
// automata wrap themselves in internal/retransmit when running over TCP.
type TCPTransport struct {
	cfg  TCPConfig
	self model.ProcID
	n    int

	ln        net.Listener
	dialer    *net.Dialer // shared across all peer writers
	inbox     chan Frame
	closed    chan struct{}
	once      sync.Once
	dropped   atomic.Int64
	inboxDrop atomic.Int64 // subset of dropped: inbox-overflow drops
	flushes   atomic.Int64 // connection writes (each carrying >= 1 frame)
	coalesced atomic.Int64 // frames that rode an earlier frame's flush
	redials   atomic.Int64 // dial attempts after a dial or write failure
	bytesSent atomic.Int64 // bytes written to connections, length prefixes included
	peers     map[model.ProcID]*tcpPeer
	wg        sync.WaitGroup
}

type tcpPeer struct {
	id   model.ProcID
	addr string
	out  chan Frame
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport binds Self's listen address and starts the accept loop and
// one writer per peer. The peer map must name every process exactly once,
// with IDs 1..n.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	cfg = cfg.withDefaults()
	n := len(cfg.Peers)
	if n < 2 {
		return nil, errors.New("runtime: TCP cluster needs at least 2 peers")
	}
	selfAddr, ok := cfg.Peers[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("runtime: peer map has no entry for self (%v)", cfg.Self)
	}
	for _, p := range model.Procs(n) {
		if _, ok := cfg.Peers[p]; !ok {
			return nil, fmt.Errorf("runtime: peer map must cover 1..%d contiguously; %v missing", n, p)
		}
	}
	ln, err := net.Listen("tcp", selfAddr)
	if err != nil {
		return nil, fmt.Errorf("runtime: listen %s: %w", selfAddr, err)
	}
	t := &TCPTransport{
		cfg:    cfg,
		self:   cfg.Self,
		n:      n,
		ln:     ln,
		dialer: &net.Dialer{Timeout: cfg.DialTimeout},
		inbox:  make(chan Frame, cfg.InboxSize),
		closed: make(chan struct{}),
		peers:  make(map[model.ProcID]*tcpPeer, n-1),
	}
	for _, p := range model.Procs(n) {
		if p == cfg.Self {
			continue
		}
		peer := &tcpPeer{id: p, addr: cfg.Peers[p], out: make(chan Frame, cfg.OutboxSize)}
		t.peers[p] = peer
		t.wg.Add(1)
		go t.writer(peer)
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Self implements Transport.
func (t *TCPTransport) Self() model.ProcID { return t.self }

// N implements Transport.
func (t *TCPTransport) N() int { return t.n }

// Recv implements Transport.
func (t *TCPTransport) Recv() <-chan Frame { return t.inbox }

// Dropped implements Transport.
func (t *TCPTransport) Dropped() int64 { return t.dropped.Load() }

// InboxDropped returns the subset of Dropped() lost to inbox overflow (as
// opposed to outbound-queue overflow, encode failures, and broken writes).
func (t *TCPTransport) InboxDropped() int64 { return t.inboxDrop.Load() }

// Flushes returns how many connection writes the writers performed; each
// flush carries one or more coalesced frames.
func (t *TCPTransport) Flushes() int64 { return t.flushes.Load() }

// Redials returns how many dial attempts followed a connection failure — a
// failed dial retried, or a fresh dial after a broken write. A steadily
// climbing count is the transport-level signature of a flapping peer.
func (t *TCPTransport) Redials() int64 { return t.redials.Load() }

// Coalesced returns how many frames were carried by a flush they did not
// trigger — the frames whose syscall the coalescing writer saved.
func (t *TCPTransport) Coalesced() int64 { return t.coalesced.Load() }

// BytesSent returns how many bytes the writers put on connections, length
// prefixes included; with Flushes and Coalesced it gives bytes per frame.
func (t *TCPTransport) BytesSent() int64 { return t.bytesSent.Load() }

// Addr returns the address the endpoint actually listens on (useful with
// ":0" test configs).
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Close implements Transport: stop the accept loop and all writers, close
// every connection, and wait for the goroutines to exit.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		_ = t.ln.Close()
	})
	t.wg.Wait()
	return nil
}

// Send implements Transport: self-frames loop back through the inbox, peer
// frames enqueue on the peer's outbound queue. Never blocks — a full queue
// or closed endpoint drops the frame with a counter.
func (t *TCPTransport) Send(f Frame) error {
	peer, ok := t.peers[f.To]
	if !ok {
		return errNotPeer(t.self, f.To)
	}
	select {
	case <-t.closed:
		return errors.New("runtime: transport closed")
	default:
	}
	select {
	case peer.out <- f:
	default:
		t.drop(f)
	}
	return nil
}

// drop counts one lost frame and tells the configured hook.
func (t *TCPTransport) drop(f Frame) {
	t.dropped.Add(1)
	if t.cfg.OnDrop != nil {
		t.cfg.OnDrop(f.From, f.To, f.Payload)
	}
}

// offer funnels a received frame into the inbox, dropping on overflow like
// every Transport.
func (t *TCPTransport) offer(f Frame) {
	select {
	case <-t.closed:
		return
	default:
	}
	select {
	case t.inbox <- f:
	case <-t.closed:
	default:
		t.inboxDrop.Add(1)
		t.drop(f)
	}
}

// accept owns the listener: one reader goroutine per inbound connection.
// Frames carry their sender, so no handshake is needed — any process may
// open any number of connections here.
func (t *TCPTransport) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			// Transient accept error: back off briefly and keep serving.
			select {
			case <-t.closed:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		t.wg.Add(1)
		go t.reader(conn)
	}
}

// reader decodes one inbound connection's frames until it breaks or the
// endpoint closes. A truncated, oversized or undecodable frame ends the
// connection; the peer redials.
func (t *TCPTransport) reader(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	// Unblock the blocking Read when the endpoint closes.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-t.closed:
			conn.SetReadDeadline(time.Now())
			conn.Close()
		case <-stop:
		}
	}()
	dec := NewFrameDecoder(conn)
	for {
		f, err := dec.Next()
		if err != nil {
			return
		}
		t.offer(f)
	}
}

// writer owns the outbound connection to one peer: dial (and redial, with
// capped exponential backoff) for as long as the endpoint lives, COALESCE
// whatever has queued behind the frame that woke it — up to
// maxCoalescedFrames, drained without blocking — into one buffer of
// length-prefixed frames, and flush that buffer with a single connection
// write (the writev-style amortization: a replica broadcasting through the
// retransmission layer queues n envelopes back to back, and a batch-window's
// worth of traffic to one peer becomes one syscall instead of one per
// frame).
//
// Anything that cannot be delivered right now is dropped with a counter —
// at-most-once, by design. A broken write drops the frames of its flush. An
// unencodable frame is dropped alone before the flush; it says nothing about
// the link, so the connection stays up and the backoff does not widen.
//
// The backoff streak persists ACROSS connections, not just across failed
// dials: a flapping peer whose listener accepts connections and immediately
// resets them would otherwise induce a tight dial/write-fail/redial loop
// (dial succeeds, so dial-level backoff never engages). Consecutive
// connection failures — dial errors and write errors alike — widen the pause
// before the next dial up to MaxRedialBackoff; one successful write resets
// the streak.
func (t *TCPTransport) writer(peer *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	var buf []byte
	batch := make([]Frame, 0, maxCoalescedFrames)
	encoded := make([]Frame, 0, maxCoalescedFrames)
	failStreak := 0
	for {
		var f Frame
		select {
		case <-t.closed:
			return
		case f = <-peer.out:
		}
		// Drain what queued behind the wakeup frame; later arrivals ride the
		// next flush.
		batch = append(batch[:0], f)
	drain:
		for len(batch) < maxCoalescedFrames {
			select {
			case more := <-peer.out:
				batch = append(batch, more)
			default:
				break drain
			}
		}
		buf, encoded = buf[:0], encoded[:0]
		for _, fr := range batch {
			var err error
			if buf, err = AppendFrame(buf, fr); err != nil {
				t.drop(fr)
				continue
			}
			encoded = append(encoded, fr)
		}
		if len(encoded) == 0 {
			continue
		}
		if conn == nil {
			if conn, failStreak = t.connect(peer, failStreak); conn == nil {
				return // endpoint closed
			}
		}
		n, err := conn.Write(buf)
		t.bytesSent.Add(int64(n))
		if err != nil {
			failStreak++
			for _, fr := range encoded {
				t.drop(fr)
			}
			conn.Close()
			conn = nil
			continue
		}
		failStreak = 0
		t.flushes.Add(1)
		t.coalesced.Add(int64(len(encoded) - 1))
	}
}

// connect dials peer after the pause that failStreak consecutive connection
// failures call for. It returns the connection (nil once the endpoint
// closes) and the streak grown by the dial attempts that failed.
func (t *TCPTransport) connect(peer *tcpPeer, failStreak int) (net.Conn, int) {
	if failStreak > 0 {
		if !t.pause(capBackoff(t.cfg.RedialBackoff, t.cfg.MaxRedialBackoff, failStreak)) {
			return nil, failStreak
		}
		t.redials.Add(1)
	}
	conn, dialErrs := t.dial(peer)
	return conn, failStreak + dialErrs
}

// pause sleeps for d unless the endpoint closes first.
func (t *TCPTransport) pause(d time.Duration) bool {
	select {
	case <-t.closed:
		return false
	case <-time.After(d):
		return true
	}
}

// capBackoff is the writer's capped exponential redial pause after streak
// consecutive connection failures.
func capBackoff(base, max time.Duration, streak int) time.Duration {
	d := base
	for i := 1; i < streak && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// dial connects to a peer, retrying with capped exponential backoff until it
// succeeds or the endpoint closes (then it returns a nil conn). It reports
// how many attempts failed so the writer's cross-connection streak keeps
// counting.
func (t *TCPTransport) dial(peer *tcpPeer) (net.Conn, int) {
	backoff := t.cfg.RedialBackoff
	errs := 0
	for {
		conn, err := t.dialer.Dial("tcp", peer.addr)
		if err == nil {
			return conn, errs
		}
		errs++
		select {
		case <-t.closed:
			return nil, errs
		case <-time.After(backoff):
		}
		t.redials.Add(1)
		backoff *= 2
		if backoff > t.cfg.MaxRedialBackoff {
			backoff = t.cfg.MaxRedialBackoff
		}
	}
}
