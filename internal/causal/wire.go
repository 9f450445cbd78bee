package causal

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/wire"
)

// Wire form: ETOB's update messages carry whole causality graphs, so a
// Graph must cross process boundaries when replicas run over a real
// transport (internal/runtime.TCPTransport). The positional storage is
// unexported by design; AppendWire and ReadGraph carry exactly the canonical
// content — nodes in insertion order with their predecessor lists — and the
// string→position index is rebuilt lazily on the receiving side, the same
// way Clone defers it. The lineage tag does not cross the wire.
//
// A graph is closed under dependency (Add inserts unknown predecessors as
// nodes), so a predecessor is written as the position of its node, not as
// its ID again:
//
//	graph  = count(nodes) string* preds*
//	preds  = count(positions) position*
//	string = count(bytes) bytes
//
// where every count and position is an unsigned varint, and the i-th preds
// list belongs to the i-th node.

var errPosition = errors.New("causal: malformed graph encoding: predecessor position out of range")

// positions holds string→position maps for AppendWire. Several transport
// writers may encode one snapshot at once, so the encoder cannot build the
// graph's own index; it borrows a map instead.
var positions = sync.Pool{New: func() any { return make(map[string]int) }}

// AppendWire appends g's wire form to b. It only reads g, so several
// goroutines may encode one snapshot at once.
func (g *Graph) AppendWire(b []byte) ([]byte, error) {
	pos := positions.Get().(map[string]int)
	defer positions.Put(pos)
	clear(pos)
	b = wire.AppendUint(b, uint64(len(g.nodes)))
	for i, m := range g.nodes {
		b = wire.AppendString(b, m)
		pos[m] = i
	}
	for i, ps := range g.preds {
		b = wire.AppendUint(b, uint64(len(ps)))
		for _, d := range ps {
			p, ok := pos[d]
			if !ok {
				return b, fmt.Errorf("causal: %q depends on %q, which is not a node", g.nodes[i], d)
			}
			b = wire.AppendUint(b, uint64(p))
		}
	}
	return b, nil
}

// ReadGraph decodes one graph from r; on malformed input it records the
// error in r and returns nil. The decoded graph owns its storage (nothing
// aliases the wire buffer), and its predecessor lists share its node
// strings. It carries no index until first use, and belongs to no lineage:
// nothing says which earlier snapshot it extends, so a receiver merges it in
// full. Every count is checked against the bytes left before anything is
// allocated for it: a node takes at least two bytes and a predecessor or
// string byte at least one, so malformed input never allocates more than a
// small multiple of its length.
func ReadGraph(r *wire.Reader) *Graph {
	n := r.Count(2)
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = r.Str()
	}
	preds := make([][]string, n)
	for i := range preds {
		k := r.Count(1)
		if k == 0 {
			continue
		}
		ps := make([]string, k)
		for j := range ps {
			p := r.Uvarint()
			if p >= uint64(n) {
				r.Fail(errPosition)
				break
			}
			ps[j] = nodes[p]
		}
		preds[i] = ps
	}
	if r.Err() != nil {
		return nil
	}
	return &Graph{nodes: nodes, preds: preds}
}
