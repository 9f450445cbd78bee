package runtime

import (
	"net"
	"testing"
	"time"

	"repro/internal/model"
)

// TestTCPWriterCoalescesQueuedFrames pins the writev-style flush: frames that
// queue while the peer is unreachable must go out in (at most a couple of)
// coalesced connection writes once it comes up, not one write per frame — and
// the flush/coalesce counters must account for every delivered frame.
func TestTCPWriterCoalescesQueuedFrames(t *testing.T) {
	// Reserve both ports up front; only endpoint 1 binds for now, so its
	// writer to peer 2 is stuck redialing while we queue frames.
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

	const frames = 10
	for i := 0; i < frames; i++ {
		if err := ep1.Send(Frame{From: 1, To: 2, ID: int64(i + 1), Payload: testPayload{K: i}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Give the writer time to park in dial backoff with the queue full.
	time.Sleep(100 * time.Millisecond)

	ep2, err := retryBind(TCPConfig{Self: 2, Peers: clonePeers(addrs)})
	if err != nil {
		t.Fatalf("bind ep2: %v", err)
	}
	defer ep2.Close()

	for i := 0; i < frames; i++ {
		f := expectFrame(t, ep2, 5*time.Second)
		if f.ID != int64(i+1) || f.Payload.(testPayload).K != i {
			t.Fatalf("frame %d out of order or mangled: %+v", i, f)
		}
	}

	// The writer bumps its counters after conn.Write returns, which can be
	// after the receiver already holds every frame: wait for the accounting
	// to land before checking it.
	flushes, coalesced := ep1.Flushes(), ep1.Coalesced()
	for deadline := time.Now().Add(5 * time.Second); flushes+coalesced < frames && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		flushes, coalesced = ep1.Flushes(), ep1.Coalesced()
	}
	if flushes+coalesced != frames {
		t.Errorf("flushes (%d) + coalesced (%d) != %d delivered frames", flushes, coalesced, frames)
	}
	// All 10 frames were queued before the peer's listener existed, so after
	// the single-frame wakeup that got stuck dialing, the rest must ride one
	// drain: at most two flushes, at least eight saved writes.
	if flushes > 2 || coalesced < frames-2 {
		t.Errorf("coalescing too weak: %d flushes, %d coalesced frames", flushes, coalesced)
	}
	if ep1.InboxDropped() != 0 {
		t.Errorf("unexpected inbox drops on the sender: %d", ep1.InboxDropped())
	}
}
