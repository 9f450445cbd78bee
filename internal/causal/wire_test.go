package causal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/wire"
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

// decodeGraph decodes b as exactly one graph.
func decodeGraph(b []byte) (*Graph, error) {
	var r wire.Reader
	r.Reset(b)
	g := ReadGraph(&r)
	return g, r.Done()
}

// FuzzGraphWire holds the graph wire form to two properties. A graph built
// from the input round-trips to the same nodes, in order, with the same
// predecessor lists. And the input itself, taken as an encoding, decodes
// or fails with an error, never panics, and never allocates more than a
// small multiple of its length: every count in it is checked against the
// bytes that remain, and every predecessor position against the node count.
func FuzzGraphWire(f *testing.F) {
	valid, _ := graphFrom([]byte{1, 0, 2, 1, 1, 3, 2, 1, 2, 1, 3, 2}).AppendWire(nil)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(slices.Clone(valid), 0))
	f.Add(binary.AppendUvarint(nil, 1<<40))                          // node count beyond the input
	f.Add(append(binary.AppendUvarint([]byte{1, 1, 'a'}, 1<<40), 0)) // predecessor count beyond it
	f.Add([]byte{1, 200, 'a', 0})                                    // string length beyond it
	f.Add([]byte{2, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 'a', 1, 'b', 1, 2, 0}) // a position past the nodes
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFrom(data)
		b, err := g.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := decodeGraph(b)
		if err != nil {
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
		d, err := decodeGraph(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d); err=%v", len(data), grew, limit, err)
		}
		if err == nil {
			_ = d.String() + strconv.FormatBool(d.Has("0")) // a decoded graph is usable
		}
	})
}

// TestAppendWireSharedSnapshot: the transport's writers encode one sent
// snapshot at once, one per peer, while the sender's graph keeps growing.
// Encoding only reads the snapshot, so every writer gets the same bytes,
// and the race detector sees no conflict.
func TestAppendWireSharedSnapshot(t *testing.T) {
	g := New()
	for i := range 50 {
		g.Add("m"+strconv.Itoa(i), g.NodesFrom(max(0, g.Len()-2)))
	}
	snap := g.Clone()
	want, err := snap.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if b, err := snap.AppendWire(nil); err != nil || !bytes.Equal(b, want) {
					t.Errorf("concurrent encode: %v, or bytes differ", err)
					return
				}
			}
		}()
	}
	for i := 50; i < 150; i++ {
		g.Add("m"+strconv.Itoa(i), []string{"m" + strconv.Itoa(i-1)})
		g.Add("m"+strconv.Itoa(i-40), []string{"m" + strconv.Itoa(i-45)}) // a late edge
	}
	wg.Wait()
}
