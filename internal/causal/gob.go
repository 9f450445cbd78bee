package causal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire encoding: ETOB's update messages carry whole causality graphs, so a
// Graph must cross process boundaries when replicas run over a real
// transport (internal/runtime.TCPTransport). The positional storage is
// unexported by design; GobEncode/GobDecode serialize exactly the canonical
// content — nodes in insertion order with their predecessor lists — and the
// string→position index is rebuilt lazily on the receiving side, the same
// way Clone defers it. The lineage tag does not cross the wire.
//
// The blob is a flat uvarint encoding, not a nested gob stream, so a graph
// costs no codec of its own inside the transport's per-connection stream:
//
//	graph  = count(nodes) node*
//	node   = string count(preds) string*
//	string = count(bytes) bytes
//
// where every count is an unsigned varint.

var errGraphTruncated = errors.New("causal: malformed graph encoding: truncated")

// GobEncode implements gob.GobEncoder.
func (g *Graph) GobEncode() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(g.nodes)))
	for i, m := range g.nodes {
		b = appendString(b, m)
		b = binary.AppendUvarint(b, uint64(len(g.preds[i])))
		for _, d := range g.preds[i] {
			b = appendString(b, d)
		}
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// GobDecode implements gob.GobDecoder. The decoded graph owns its storage
// (nothing aliases the wire buffer), carries no index until first use, and
// belongs to no lineage. Every count is checked against the bytes left
// before anything is allocated for it: a node takes at least two bytes and
// a predecessor or string byte at least one, so malformed input is rejected
// with an error and never allocates more than a small multiple of its
// length.
func (g *Graph) GobDecode(b []byte) error {
	r := graphReader{b: b}
	n := r.count(2)
	nodes := make([]string, n)
	preds := make([][]string, n)
	for i := range nodes {
		nodes[i] = r.string()
		if k := r.count(1); k > 0 {
			ps := make([]string, k)
			for j := range ps {
				ps[j] = r.string()
			}
			preds[i] = ps
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("causal: malformed graph encoding: %d trailing bytes", len(r.b))
	}
	// No index (rebuilt lazily by ensureIndex, like a fresh Clone) and no
	// lineage: nothing says which earlier snapshot this one extends, so a
	// receiver merges it in full.
	*g = Graph{nodes: nodes, preds: preds}
	return nil
}

// graphReader consumes a graph blob. After the first error every read
// returns a zero value, so the decoder's loops end without allocating.
type graphReader struct {
	b   []byte
	err error
}

// count reads a count of items each taking at least min bytes, and rejects
// one the remaining input cannot hold.
func (r *graphReader) count(min int) int {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b)
	if k <= 0 || v > uint64(len(r.b)-k)/uint64(min) {
		r.err = errGraphTruncated
		return 0
	}
	r.b = r.b[k:]
	return int(v)
}

func (r *graphReader) string() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
