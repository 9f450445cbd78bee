package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/consensus"
	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/wire"
)

// unregisteredPayload has no wire form.
type unregisteredPayload struct{ X int }

// TestTCPEncodeErrorPoisonsOnlyItsFrame: a frame that fails to encode (an
// envelope around a payload with no wire form) sits in the middle of a
// coalesced flush. Frames share no codec state, so the writer must drop that
// one frame, deliver every frame around it on the same connection, and
// never redial.
func TestTCPEncodeErrorPoisonsOnlyItsFrame(t *testing.T) {
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer peer.Close()
	ep1, err := retryBind(TCPConfig{Self: 1, Peers: map[model.ProcID]string{1: "127.0.0.1:0", 2: peer.Addr().String()}})
	if err != nil {
		t.Fatalf("bind ep1: %v", err)
	}
	defer ep1.Close()

	send := func(p any) {
		t.Helper()
		if err := ep1.Send(Frame{From: 1, To: 2, Payload: p}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	// The first frame is larger than the loopback socket buffers, and
	// nothing reads the connection yet: the writer sits in its write while
	// the rest queue up, and drains them as one batch once reading starts.
	send(testPayload{K: -1, S: strings.Repeat("x", 16<<20)})
	conn, err := peer.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond)
	const around = 10
	for i := 0; i < around; i++ {
		if i == around/2 {
			send(retransmit.Data{Epoch: 1, Seq: 1, Payload: unregisteredPayload{X: 1}})
		}
		send(testPayload{K: i})
	}

	dec := NewFrameDecoder(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for want := -1; want < around; want++ {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("reading frame %d: %v", want, err)
		}
		if p, ok := f.Payload.(testPayload); !ok || p.K != want {
			t.Fatalf("frame %d: got %T %+v", want, f.Payload, f.Payload)
		}
	}
	send(testPayload{K: 99})
	if f, err := dec.Next(); err != nil || f.Payload.(testPayload).K != 99 {
		t.Fatalf("later frame on the same connection: %+v, %v", f, err)
	}
	if d := ep1.Dropped(); d != 1 {
		t.Fatalf("Dropped() = %d, want exactly the unencodable frame", d)
	}
	if r := ep1.Redials(); r != 0 {
		t.Fatalf("Redials() = %d: an encode error must not end the connection", r)
	}
}

// codecFrames are the frames a live replica sends most: the Ω heartbeat, a
// retransmit ack, a leader's promote of a 330-op history, and an update
// carrying a 100-node graph — live-kv's largest frame — each of the last two
// in a retransmit envelope.
func codecFrames() []struct {
	name string
	f    Frame
} {
	seq := make([]string, 330)
	for i := range seq {
		seq[i] = fmt.Sprintf("%d:%d", i%3+1, i)
	}
	g := causal.New()
	for i := 0; i < 100; i++ {
		var deps []string
		if i > 0 {
			deps = append(deps, seq[i-1])
		}
		if i > 3 && i%3 == 0 {
			deps = append(deps, seq[i-4])
		}
		g.Add(seq[i], deps)
	}
	return []struct {
		name string
		f    Frame
	}{
		{"heartbeat", Frame{From: 1, To: 2, Payload: Heartbeat{}}},
		{"ack", Frame{From: 1, To: 2, ID: 812, SentAt: 4090, Payload: retransmit.Ack{Epoch: 1, Seq: 407}}},
		{"promote330", Frame{From: 1, To: 2, ID: 813, SentAt: 4090,
			Payload: retransmit.Data{Epoch: 1, Seq: 408, Base: 400, Payload: etob.PromoteMsg{Seq: seq, Counter: 2045}}}},
		{"update100", Frame{From: 1, To: 2, ID: 814, SentAt: 4090,
			Payload: retransmit.Data{Epoch: 1, Seq: 408, Base: 400, Payload: etob.UpdateMsg{CG: g.Clone()}}}},
	}
}

// codecLoop is one sender's buffer and one receiver's decoder joined by an
// in-memory stream.
type codecLoop struct {
	buf    []byte
	stream bytes.Buffer
	dec    *FrameDecoder
}

func newCodecLoop() *codecLoop {
	l := &codecLoop{}
	l.dec = NewFrameDecoder(&l.stream)
	return l
}

// roundTrip encodes f, passes its bytes through the stream and decodes them.
func (l *codecLoop) roundTrip(f Frame) (Frame, error) {
	var err error
	if l.buf, err = AppendFrame(l.buf[:0], f); err != nil {
		return Frame{}, err
	}
	l.stream.Write(l.buf)
	return l.dec.Next()
}

// TestFrameCodecHeartbeatAllocs guards the per-frame cost of the typed
// codec: a heartbeat's round trip allocates nothing, and an ack's only the
// value it decodes to. gob's stream, which the transport once used, took 3
// and 5.
func TestFrameCodecHeartbeatAllocs(t *testing.T) {
	for _, c := range []struct {
		f   Frame
		max float64
	}{
		{Frame{From: 1, To: 2, Payload: Heartbeat{}}, 0},
		{Frame{From: 1, To: 2, ID: 812, SentAt: 4090, Payload: retransmit.Ack{Epoch: 1, Seq: 407}}, 1},
	} {
		l := newCodecLoop()
		if _, err := l.roundTrip(c.f); err != nil { // sizes the buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := l.roundTrip(c.f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%T round trip: %.0f allocs, want <= %.0f", c.f.Payload, allocs, c.max)
		}
	}
}

// BenchmarkTCPCodec measures one frame's encode plus decode, and reports
// its size on the wire (length prefix included).
func BenchmarkTCPCodec(b *testing.B) {
	for _, c := range codecFrames() {
		b.Run(c.name, func(b *testing.B) {
			l := newCodecLoop()
			if _, err := l.roundTrip(c.f); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.ReportMetric(float64(len(l.buf)), "bytes/frame")
			for i := 0; i < b.N; i++ {
				if _, err := l.roundTrip(c.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fuzzBytes hands out a fuzz input piece by piece, and zeros once it is
// used up.
type fuzzBytes []byte

func (d *fuzzBytes) byte() byte {
	if len(*d) == 0 {
		return 0
	}
	c := (*d)[0]
	*d = (*d)[1:]
	return c
}

// int takes up to eight bytes, so values of every size and sign occur.
func (d *fuzzBytes) int() int64 {
	var v uint64
	for k := d.byte() % 9; k > 0; k-- {
		v = v<<8 | uint64(d.byte())
	}
	return int64(v)
}

func (d *fuzzBytes) str() string {
	n := min(int(d.byte()%12), len(*d))
	s := string((*d)[:n])
	*d = (*d)[n:]
	return s
}

func (d *fuzzBytes) strs() []string {
	var ss []string
	for k := d.byte() % 6; k > 0; k-- {
		ss = append(ss, d.str())
	}
	return ss
}

// payload builds one payload of any registered type; an envelope is built
// only at the top, as the retransmission layer sends them.
func (d *fuzzBytes) payload(top bool) any {
	switch d.byte() % 11 {
	case 0:
		return Heartbeat{}
	case 1:
		return retransmit.Ack{Epoch: d.int(), Seq: d.int()}
	case 2:
		if top {
			return retransmit.Data{Epoch: d.int(), Seq: d.int(), Base: d.int(), Payload: d.payload(false)}
		}
		return Heartbeat{}
	case 3:
		g := causal.New()
		for k := d.byte() % 8; k > 0; k-- {
			g.Add(strconv.Itoa(int(d.byte()%10)), d.strs())
		}
		return etob.UpdateMsg{CG: g}
	case 4:
		return etob.PromoteMsg{Seq: d.strs(), Counter: d.int()}
	case 5:
		return consensus.SubmitMsg{ID: d.str()}
	case 6:
		return consensus.PrepareMsg{Ballot: d.int()}
	case 7:
		m := consensus.PromiseMsg{Ballot: d.int()}
		for k := d.byte() % 4; k > 0; k-- {
			if m.Accepted == nil {
				m.Accepted = make(map[int]consensus.BallotValue)
			}
			m.Accepted[int(d.int())] = consensus.BallotValue{Ballot: d.int(), Value: d.str()}
		}
		return m
	case 8:
		return consensus.AcceptMsg{Ballot: d.int(), Instance: int(d.int()), Value: d.str()}
	case 9:
		return consensus.AcceptedMsg{Ballot: d.int(), Instance: int(d.int()), Value: d.str()}
	default:
		return testPayload{K: int(d.int()), S: d.str()}
	}
}

// frameFrom builds a frame from arbitrary bytes.
func frameFrom(data []byte) Frame {
	d := fuzzBytes(data)
	return Frame{From: model.ProcID(d.byte()), To: model.ProcID(d.byte()), ID: d.int(),
		SentAt: model.Time(d.int()), Payload: d.payload(true)}
}

// frameBody is a hand-built frame body: addressing, then raw payload bytes.
func frameBody(payload ...byte) []byte {
	return append([]byte{1, 2, 0, 0}, payload...)
}

// malformedBodies are frame bodies the decoder must reject.
func malformedBodies() map[string][]byte {
	return map[string][]byte{
		"nested envelope": frameBody(byte(wire.TagData), 2, 4, 2, byte(wire.TagData), 2, 4, 2, byte(wire.TagHeartbeat)),
		"unknown tag":     frameBody(99),
		"no payload":      frameBody(),
		"trailing bytes":  frameBody(byte(wire.TagHeartbeat), 0),
		"huge count":      binary.AppendUvarint(frameBody(byte(wire.TagPromote), 2), 1<<40),
		"past the nodes":  binary.AppendUvarint(frameBody(byte(wire.TagUpdate), 1, 1, 'a', 1), 1),
	}
}

// TestFrameDecoderRejectsMalformedBodies: each malformed body behind a valid
// length prefix is an error, which ends the connection. So is a prefix that
// claims more bytes than arrive, and it allocates for those that did.
func TestFrameDecoderRejectsMalformedBodies(t *testing.T) {
	for name, body := range malformedBodies() {
		stream := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		if f, err := NewFrameDecoder(bytes.NewReader(stream)).Next(); err == nil {
			t.Errorf("%s: decoded %+v", name, f)
		}
	}
	dec := NewFrameDecoder(bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, maxFrameBytes), 1, 2, 0, 0)))
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err := dec.Next()
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
		t.Errorf("a %d-byte prefix before 4 bytes: err = %v, allocated %d bytes", maxFrameBytes, err, grew)
	}
}

// FuzzFrameWire holds the frame codec to two properties. A frame built from
// the input, over every registered payload type, decodes to a frame that
// prints the same (a graph prints its nodes and edges, a map sorted). And
// the input itself, taken as a frame body behind a valid length prefix,
// decodes or fails with an error, never panics, and never allocates more
// than a small multiple of its length: every count in it is checked against
// the bytes that remain, and envelopes do not nest.
func FuzzFrameWire(f *testing.F) {
	valid, err := AppendFrame(nil, Frame{From: 1, To: 2, ID: 9, SentAt: 40,
		Payload: retransmit.Data{Epoch: 1, Seq: 2, Base: 1, Payload: etob.PromoteMsg{Seq: []string{"1:1", "2:1"}, Counter: 3}}})
	if err != nil {
		f.Fatal(err)
	}
	body := valid[4:]
	f.Add([]byte{})
	f.Add(body)
	f.Add(body[:len(body)-1]) // truncated
	bad := malformedBodies()
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		f.Add(bad[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sent := frameFrom(data)
		got, err := newCodecLoop().roundTrip(sent)
		if err != nil {
			t.Fatalf("round trip of %+v: %v", sent, err)
		}
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", sent); g != w {
			t.Fatalf("round trip changed the frame:\n got %s\nwant %s", g, w)
		}

		dec := NewFrameDecoder(bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, uint32(len(data))), data...)))
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		fr, err := dec.Next()
		goruntime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d); err=%v", len(data), grew, limit, err)
		}
		if err == nil {
			_ = fmt.Sprintf("%+v", fr) // a decoded frame is usable
		}
	})
}
