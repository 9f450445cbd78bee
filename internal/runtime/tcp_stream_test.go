package runtime

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
)

// streamWrapper is a registered wire type whose field may hold a type that
// is not: encoding it then fails after its own descriptor was written.
type streamWrapper struct{ V any }

// unregisteredPayload is never registered with the wire codec.
type unregisteredPayload struct{ X int }

func init() { RegisterWireType(streamWrapper{}) }

// TestTCPEncodeErrorPoisonsOnlyItsFrame: a frame that fails to encode is the
// first streamWrapper on its connection, in the middle of a coalesced flush.
// Its failed Encode leaves the stream believing the wrapper's descriptor was
// sent, though the bytes carrying it were discarded with the frame. The
// writer must drop that one frame, deliver the frames around it, and start a
// fresh stream, so that a later wrapper still decodes at the peer.
func TestTCPEncodeErrorPoisonsOnlyItsFrame(t *testing.T) {
	addrs := make(map[model.ProcID]string, 2)
	var reserved []net.Listener
	for i := 1; i <= 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[model.ProcID(i)] = ln.Addr().String()
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}
	ep1, err := retryBind(TCPConfig{Self: 1, Peers: clonePeers(addrs)})
	if err != nil {
		t.Fatalf("bind ep1: %v", err)
	}
	defer ep1.Close()

	// The first frame wakes the writer, which then sits dialing the absent
	// peer while the rest queue up: they drain as one batch once it binds.
	send := func(p any) {
		t.Helper()
		if err := ep1.Send(Frame{From: 1, To: 2, Payload: p}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	send(testPayload{K: -1})
	time.Sleep(50 * time.Millisecond)
	const around = 10
	for i := 0; i < around; i++ {
		if i == around/2 {
			send(streamWrapper{V: unregisteredPayload{X: 1}})
		}
		send(testPayload{K: i})
	}

	ep2, err := retryBind(TCPConfig{Self: 2, Peers: clonePeers(addrs)})
	if err != nil {
		t.Fatalf("bind ep2: %v", err)
	}
	defer ep2.Close()

	got := make(map[int]bool)
	for len(got) < around+1 {
		f := expectFrame(t, ep2, 5*time.Second)
		p, ok := f.Payload.(testPayload)
		if !ok || got[p.K] || p.K < -1 || p.K >= around {
			t.Fatalf("unexpected frame %+v after %v", f, got)
		}
		got[p.K] = true
	}
	if d := ep1.Dropped(); d != 1 {
		t.Fatalf("Dropped() = %d, want exactly the unencodable frame", d)
	}

	send(streamWrapper{V: testPayload{K: 99}})
	f := expectFrame(t, ep2, 5*time.Second)
	if w, ok := f.Payload.(streamWrapper); !ok || w.V != (testPayload{K: 99}) {
		t.Fatalf("later wrapper frame mangled: %+v", f)
	}
	if d := ep1.Dropped(); d != 1 {
		t.Fatalf("Dropped() = %d after the later wrapper, want 1", d)
	}
}

// codecFrames are the frames a live replica sends most: the Ω heartbeat, a
// retransmit ack, and a leader's promote of a 330-op history in its
// retransmit envelope.
func codecFrames() []struct {
	name string
	f    Frame
} {
	seq := make([]string, 330)
	for i := range seq {
		seq[i] = fmt.Sprintf("%d:%d", i%3+1, i)
	}
	return []struct {
		name string
		f    Frame
	}{
		{"heartbeat", Frame{From: 1, To: 2, Payload: Heartbeat{}}},
		{"ack", Frame{From: 1, To: 2, ID: 812, SentAt: 4090, Payload: retransmit.Ack{Epoch: 1, Seq: 407}}},
		{"promote330", Frame{From: 1, To: 2, ID: 813, SentAt: 4090,
			Payload: retransmit.Data{Epoch: 1, Seq: 408, Base: 400, Payload: etob.PromoteMsg{Seq: seq, Counter: 2045}}}},
	}
}

// warmCodec returns both ends of one stream that has already carried f.
func warmCodec(t testing.TB, f Frame) (*bytes.Buffer, *FrameEncoder, *FrameDecoder) {
	t.Helper()
	var buf bytes.Buffer
	enc, dec := NewFrameEncoder(&buf), NewFrameDecoder(&buf)
	if err := enc.Append(f); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := dec.Next(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &buf, enc, dec
}

// TestFrameCodecHeartbeatAllocs guards the per-frame cost of the persistent
// stream: once a connection has carried a heartbeat, another one costs a
// handful of allocations for encode and decode together. Building a gob
// codec per frame, as the transport once did, costs about 200.
func TestFrameCodecHeartbeatAllocs(t *testing.T) {
	hb := Frame{From: 1, To: 2, Payload: Heartbeat{}}
	_, enc, dec := warmCodec(t, hb)
	allocs := testing.AllocsPerRun(100, func() {
		if err := enc.Append(hb); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("heartbeat round trip on a warm stream: %.0f allocs, want <= 10", allocs)
	}
}

// BenchmarkTCPCodec measures one frame's encode plus decode on a warm
// connection stream, and reports its size on the wire (length prefix
// included).
func BenchmarkTCPCodec(b *testing.B) {
	for _, c := range codecFrames() {
		b.Run(c.name, func(b *testing.B) {
			buf, enc, dec := warmCodec(b, c.f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Append(c.f); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(buf.Len()), "bytes/frame")
				}
				if _, err := dec.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
