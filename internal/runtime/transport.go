package runtime

import (
	"fmt"

	"repro/internal/model"
)

// Frame is one wire-level envelope between processes: link addressing plus
// an opaque protocol payload. Frames are what a Transport moves; the
// protocol meaning of the payload belongs entirely to the automaton layer
// (internal/etob, internal/retransmit envelopes, ...). The Proc loop reads
// one thing off every frame it receives, whatever the payload: the sender is
// alive, which is what the heartbeat Ω is built from.
type Frame struct {
	// From and To identify the link.
	From, To model.ProcID
	// ID is a per-sender message identifier (informational: observers report
	// it; no protocol decision may depend on it). Heartbeats carry ID 0.
	ID int64
	// SentAt is the sender's local clock at emission (informational).
	SentAt model.Time
	// Payload is the protocol-level content.
	Payload any
}

// Heartbeat is the Ω heartbeat frame. A Proc sends one only to a peer that
// reads it, and only once no frame has gone to that peer for half the
// reader's window: a process that trusts itself beats each peer with a
// higher ID after LeaderTimeout/2 of silence, and a follower beats its
// leader after DegradedAfter/2 (see Options). Followers never beat each
// other, so an idle cluster carries heartbeats on 2(n−1) links, not n(n−1),
// one per half window each. It is exported, with a wire form (an empty body
// under wire.TagHeartbeat), so that wire transports can carry it between
// real processes; the Proc loop intercepts it before the automaton ever sees
// it.
type Heartbeat struct{}

// Transport is one process's endpoint of the cluster fabric: it can address
// any peer by model.ProcID and it surfaces received frames on a channel. The
// SAME automaton code runs over any implementation — the Proc event loop is
// written against this interface only.
//
// Delivery guarantees, per implementation:
//
//   - ChanTransport (in-process reference implementation): frames are
//     delivered reliably and in per-link FIFO order, except when the
//     receiver's inbox is full — overflow frames are DROPPED and counted
//     (see Dropped) rather than blocking the sender, so one slow process can
//     never stall a peer mid-broadcast. With default-sized inboxes a drop
//     requires a pathological backlog; protocols that must survive drops wrap
//     themselves in internal/retransmit.
//
//   - TCPTransport (separate processes): frames are carried over per-peer TCP
//     connections and delivery is AT-MOST-ONCE. A frame can be lost whenever
//     a connection breaks mid-flight, while a peer is down (frames queued past
//     the outbound buffer are dropped and counted), or on receiver inbox
//     overflow. This is exactly the lossy-link regime of the paper's
//     environments, which is why internal/node always wraps replica automata
//     in the retransmission layer: resend-until-ack plus receiver-side dedup
//     restores the eventual-delivery assumption end-to-end, and a TCP
//     reconnect is then just a long link delay.
//
// A Transport carries frames between peers only. A Proc delivers its
// messages to itself from its own loop, so its self-link is lossless, as in
// the simulator; Send rejects a frame addressed to the endpoint itself as it
// rejects one to an unknown process.
//
// Send never blocks on a slow peer and is safe for concurrent use; errors are
// reserved for structural failures (no such peer, closed transport), not for
// frame loss. Close releases the endpoint's resources; after Close, Recv's
// channel no longer receives frames.
type Transport interface {
	// Self returns the process this endpoint belongs to.
	Self() model.ProcID
	// N returns the number of processes in the cluster.
	N() int
	// Send transmits the frame to the peer f.To.
	Send(f Frame) error
	// Recv returns the channel on which received frames arrive.
	Recv() <-chan Frame
	// Dropped returns how many frames this endpoint discarded instead of
	// delivering: receiver-side inbox overflow plus, for wire transports,
	// sender-side losses to broken or backlogged links.
	Dropped() int64
	// Close shuts the endpoint down. Idempotent.
	Close() error
}

// errNotPeer is Send's error for a frame addressed to no peer of self: an
// unknown process, or self itself.
func errNotPeer(self, to model.ProcID) error {
	return fmt.Errorf("runtime: send from %v to %v: not a peer", self, to)
}
