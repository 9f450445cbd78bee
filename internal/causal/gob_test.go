package causal

import (
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// graphFrom builds a graph from arbitrary bytes: each step takes a node
// byte, a dependency-count byte and up to three dependency bytes. IDs come
// from a small alphabet, so nodes repeat and late edges occur.
func graphFrom(data []byte) *Graph {
	g := New()
	for len(data) >= 2 {
		m, k := strconv.Itoa(int(data[0]%48)), int(data[1]%4)
		data = data[2:]
		var deps []string
		for ; k > 0 && len(data) > 0; k-- {
			deps = append(deps, strconv.Itoa(int(data[0]%48)))
			data = data[1:]
		}
		g.Add(m, deps)
	}
	return g
}

// FuzzGraphWire holds the graph wire form to two properties. A graph built
// from the input round-trips to the same nodes, in order, with the same
// predecessor lists. And the input itself, taken as an encoding, decodes
// or fails with an error, never panics, and never allocates more than a
// small multiple of its length: every count in it is checked against the
// bytes that remain.
func FuzzGraphWire(f *testing.F) {
	valid, _ := graphFrom([]byte{1, 0, 2, 1, 1, 3, 2, 1, 2, 1, 3, 2}).GobEncode()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(slices.Clone(valid), 0))
	f.Add(binary.AppendUvarint(nil, 1<<40))                            // node count beyond the input
	f.Add(append(binary.AppendUvarint([]byte{1, 1, 'a'}, 1<<40), 'b')) // predecessor count beyond it
	f.Add([]byte{1, 200, 'a', 0})                                      // string length beyond it
	f.Add([]byte{2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFrom(data)
		b, err := g.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var h Graph
		if err := h.GobDecode(b); err != nil {
			t.Fatalf("decoding an encoded graph: %v", err)
		}
		if !slices.Equal(h.Nodes(), g.Nodes()) {
			t.Fatalf("nodes %v, want %v", h.Nodes(), g.Nodes())
		}
		for _, m := range g.Nodes() {
			if !slices.Equal(h.Deps(m), g.Deps(m)) {
				t.Fatalf("deps(%s) = %v, want %v", m, h.Deps(m), g.Deps(m))
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var d Graph
		err = d.GobDecode(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d); err=%v", len(data), grew, limit, err)
		}
		if err == nil {
			_ = d.String() + strconv.FormatBool(d.Has("0")) // a decoded graph is usable
		}
	})
}
