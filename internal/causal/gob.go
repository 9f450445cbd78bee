package causal

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Wire encoding: ETOB's update messages carry whole causality graphs, so a
// Graph must cross process boundaries when replicas run over a real
// transport (internal/runtime.TCPTransport). The positional storage is
// unexported by design; GobEncode/GobDecode serialize exactly the canonical
// content — nodes in insertion order with their predecessor lists — and the
// string→position index is rebuilt lazily on the receiving side, the same
// way Clone defers it. The lineage tag does not cross the wire.

// graphWire is the encoded form of a Graph.
type graphWire struct {
	Nodes []string
	Preds [][]string
}

// GobEncode implements gob.GobEncoder.
func (g *Graph) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(graphWire{Nodes: g.nodes, Preds: g.preds})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The decoded graph owns its storage
// (nothing aliases the wire buffer), carries no index until first use, and
// belongs to no lineage.
func (g *Graph) GobDecode(b []byte) error {
	var w graphWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if len(w.Preds) != len(w.Nodes) {
		return fmt.Errorf("causal: malformed graph encoding: %d nodes, %d predecessor lists",
			len(w.Nodes), len(w.Preds))
	}
	// No index (rebuilt lazily by ensureIndex, like a fresh Clone) and no
	// lineage: nothing says which earlier snapshot this one extends, so a
	// receiver merges it in full.
	*g = Graph{nodes: w.Nodes, preds: w.Preds}
	return nil
}
