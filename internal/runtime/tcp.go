package runtime

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

func init() {
	// Heartbeats are the one payload the runtime itself puts on the wire.
	gob.Register(Heartbeat{})
}

// RegisterWireType registers a concrete payload type with the gob codec used
// by TCPTransport. Every payload type a protocol sends must be registered in
// each process that sends or receives it (internal/node registers the whole
// replica stack's vocabulary); unregistered payloads fail at encode time and
// are counted as drops.
func RegisterWireType(v any) { gob.Register(v) }

// maxFrameBytes bounds a single decoded frame (defensive: a corrupt length
// prefix must not allocate unbounded memory).
const maxFrameBytes = 64 << 20

// FrameEncoder is the sending half of one connection's gob stream: each
// Append adds one length-prefixed frame to the buffer it was made with. The
// stream's state lives in the encoder, so one encoder serves exactly one
// connection, from its first byte.
type FrameEncoder struct {
	buf *bytes.Buffer
	enc *gob.Encoder
}

// NewFrameEncoder starts a stream whose frames are appended to buf. The
// caller may Reset buf between flushes; the stream continues.
func NewFrameEncoder(buf *bytes.Buffer) *FrameEncoder {
	return &FrameEncoder{buf: buf, enc: gob.NewEncoder(buf)}
}

// Append encodes f as the stream's next frame: a 4-byte big-endian length,
// then the bytes of one Encode call — the descriptors of the types the
// stream has not carried yet, then the value. On error (an unregistered or
// unencodable payload) buf is left as it was, but the stream is poisoned: the encoder may count descriptors as
// sent that were among the discarded bytes, so nothing more may be
// appended after the frames already in buf.
func (e *FrameEncoder) Append(f Frame) error {
	start := e.buf.Len()
	e.buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := e.enc.Encode(f); err != nil {
		e.buf.Truncate(start)
		return err
	}
	b := e.buf.Bytes()[start:]
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return nil
}

// FrameDecoder is the receiving half of one connection's gob stream.
type FrameDecoder struct {
	r      *bufio.Reader
	lenBuf [4]byte
	body   bytes.Buffer // one frame; reused
	dec    *gob.Decoder // reads body, an io.ByteReader, so it adds no buffer
}

// NewFrameDecoder reads the stream of frames a FrameEncoder wrote to r.
func NewFrameDecoder(r io.Reader) *FrameDecoder {
	d := &FrameDecoder{r: bufio.NewReader(r)}
	d.dec = gob.NewDecoder(&d.body)
	return d
}

var errCorruptFrame = errors.New("runtime: corrupt frame stream")

// Next reads and decodes the stream's next frame. Any error — a read error,
// a length of zero or over maxFrameBytes, a gob error, or a frame whose
// bytes the decode did not use up — leaves the stream unusable.
func (d *FrameDecoder) Next() (Frame, error) {
	if _, err := io.ReadFull(d.r, d.lenBuf[:]); err != nil {
		return Frame{}, err
	}
	size := int(binary.BigEndian.Uint32(d.lenBuf[:]))
	if size == 0 || size > maxFrameBytes {
		return Frame{}, errCorruptFrame
	}
	d.body.Reset()
	d.body.Grow(size)
	b := d.body.AvailableBuffer()[:size]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return Frame{}, err
	}
	d.body.Write(b) // in place: b is body's own spare capacity
	var f Frame
	if err := d.dec.Decode(&f); err != nil {
		return Frame{}, err
	}
	if d.body.Len() != 0 {
		return Frame{}, errCorruptFrame
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
// at least its own listener), frames travel as length-prefixed gob blobs
// over per-peer TCP connections. Writer goroutines own one reconnecting
// connection per peer, sharing a single net.Dialer; readers accept any
// number of inbound connections and funnel decoded frames into the inbox.
//
// Each connection carries ONE gob stream (FrameEncoder on the writer,
// FrameDecoder on the reader): a type's descriptor crosses a connection once,
// with the first frame of that type, and every later frame carries only its
// value. Frames are still length-prefixed (4-byte big-endian length, then
// the bytes of one Encode call), so the reader decodes exactly one frame at
// a time. The stream lives and dies with its connection: a redial starts a
// fresh encoder and the peer's new reader a fresh decoder, and a partially
// written frame fails the old connection's decode without touching the new
// one. A frame that fails to encode poisons its stream (the encoder may
// already count descriptors as sent that went out with the discarded
// bytes), so the writer drops that frame, flushes the frames before it and
// ends the connection; the rest ride the redial.
//
// Frames of different builds of this package must not meet on one
// connection: the stream and the causal.Graph blob inside it are this
// build's wire form, so every replica of a cluster runs the same build.
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

// reader decodes one inbound connection's frame stream until it breaks or
// the endpoint closes. A truncated, oversized or undecodable frame ends the
// connection; the peer redials with a fresh stream.
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
// frame). The frames are encoded onto the connection's gob stream, which is
// created with the connection and dropped with it.
//
// Anything that cannot be delivered right now is dropped with a counter —
// at-most-once, by design. A broken write drops the frames of its flush. An
// unencodable frame is dropped alone, but it poisons the stream: the frames
// encoded before it are flushed, the connection is closed, and the rest of
// the batch is encoded onto the redial's fresh stream. An encode error says
// nothing about the link, so it does not widen the redial backoff.
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
	var buf bytes.Buffer
	var enc *FrameEncoder // conn's stream, appending to buf
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
		for rest := batch; len(rest) > 0; {
			if conn == nil {
				if conn, failStreak = t.connect(peer, failStreak); conn == nil {
					return // endpoint closed
				}
				enc = NewFrameEncoder(&buf)
			}
			buf.Reset()
			encoded = encoded[:0]
			endConn := false
			for len(rest) > 0 && !endConn {
				fr := rest[0]
				rest = rest[1:]
				if err := enc.Append(fr); err != nil {
					t.drop(fr)
					endConn = true // the stream is poisoned; rest rides the next one
					continue
				}
				encoded = append(encoded, fr)
			}
			if len(encoded) > 0 {
				n, err := conn.Write(buf.Bytes())
				t.bytesSent.Add(int64(n))
				if err != nil {
					endConn = true
					failStreak++
					for _, fr := range encoded {
						t.drop(fr)
					}
				} else {
					failStreak = 0
					t.flushes.Add(1)
					t.coalesced.Add(int64(len(encoded) - 1))
				}
			}
			if endConn {
				conn.Close()
				conn, enc = nil, nil
			}
		}
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
