package causal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestExtendRejectsPrefixMissingPredecessor: a prefix member that gained a
// predecessor outside the prefix cannot keep its position and respect that
// edge, so Extend must report it instead of returning an order that breaks
// the edge.
func TestExtendRejectsPrefixMissingPredecessor(t *testing.T) {
	g := New()
	g.Add("c", []string{"b"})
	seq, err := g.Extend(nil)
	if err != nil || !slices.Equal(seq, []string{"b", "c"}) {
		t.Fatalf("Extend(nil) = %v, %v; want [b c]", seq, err)
	}
	mark := g.Mark()
	g.Add("b", []string{"a"})
	if out, err := g.Extend(seq); err == nil {
		t.Fatalf("Extend(%v) = %v, nil; b depends on a outside the prefix", seq, out)
	}
	// The late edge b<-a sends ExtendSince down the same check.
	if out, err := g.ExtendSince(seq, mark); err == nil {
		t.Fatalf("ExtendSince(%v) = %v, nil; b depends on a outside the prefix", seq, out)
	}
}

// TestCloneUnchangedByOwnerUpdates: a snapshot shares storage with its
// source, so it must not see the owner's later nodes or late edges, and the
// owner must not see the clone's.
func TestCloneUnchangedByOwnerUpdates(t *testing.T) {
	g := New()
	g.Add("a", nil)
	g.Add("b", nil)
	g.Add("c", []string{"a"})
	cp := g.Clone()
	want := cp.String()

	g.Add("d", []string{"c"})
	g.Add("c", []string{"b"}) // late edge on a node cp can see
	g.Add("a", []string{"b"}) // another, on the already-copied preds array
	if got := cp.String(); got != want {
		t.Fatalf("clone changed after owner updates: %q, want %q", got, want)
	}
	if !g.HasEdge("c", "b") || !g.HasEdge("a", "b") || g.Len() != 4 {
		t.Fatalf("owner lost its own updates: %v", g)
	}

	cp2 := g.Clone()
	want2 := g.String()
	cp2.Add("c", []string{"d"})
	cp2.Add("e", nil)
	if got := g.String(); got != want2 {
		t.Fatalf("owner changed after clone updates: %q, want %q", got, want2)
	}
	if got := cp.String(); got != want {
		t.Fatalf("first clone changed after second clone updates: %q", got)
	}

	// Both sides add a late edge to a predecessor list with spare capacity
	// (three entries, room for four): neither may write into the other's.
	h := New()
	h.Add("x", []string{"p", "q", "r"})
	hc := h.Clone()
	h.Add("x", []string{"s"})
	hc.Add("x", []string{"t"})
	if !h.HasEdge("x", "s") || h.HasEdge("x", "t") || !hc.HasEdge("x", "t") || hc.HasEdge("x", "s") {
		t.Fatalf("late edges crossed between clone and owner: owner %v, clone %v", h, hc)
	}
}

// TestMergeSinceMarks walks the cases of the receiver-side mark: an extension
// of the marked snapshot, a stale or repeated one, a new lineage, a graph
// decoded from the wire, a late edge, and a mutated clone.
func TestMergeSinceMarks(t *testing.T) {
	src := New()
	src.Add("a", nil)
	src.Add("b", []string{"a"})
	old := src.Clone()
	src.Add("c", []string{"b"})
	cur := src.Clone()

	g := New()
	var edges []string
	hook := func(d string) { edges = append(edges, d) }
	m := g.MergeSince(old, Mark{}, hook)
	if g.String() != old.String() || m != old.Mark() {
		t.Fatalf("first merge: graph %v", g)
	}
	edges = nil
	if m = g.MergeSince(cur, m, hook); !slices.Equal(edges, []string{"b"}) || g.String() != cur.String() {
		t.Fatalf("incremental merge: new edges %v, want [b]; graph %v", edges, g)
	}
	before := g.Mark()
	if g.MergeSince(old, m, hook) != m || g.MergeSince(cur, m, hook) != m || g.Mark() != before {
		t.Fatal("a stale or repeated snapshot of the marked lineage must be skipped")
	}

	// A restarted sender: a new lineage whose first nodes differ.
	re := New()
	re.Add("x", nil)
	if next := g.MergeSince(re, m, nil); !g.Has("x") || next != re.Mark() {
		t.Fatal("a new lineage must be merged in full and replace the mark")
	}

	// A decoded graph has no lineage, so even its own mark is no match.
	b, err := src.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	h.MergeSince(dec, dec.Mark(), nil)
	if h.String() != src.String() {
		t.Fatalf("decoded graph must be merged in full: %v", h)
	}

	// A late edge on a node below the mark forces the full walk.
	src.Add("a", []string{"z"})
	g.MergeSince(src.Clone(), m, nil)
	if !g.HasEdge("a", "z") {
		t.Fatal("a late edge below the mark was missed")
	}

	// A clone that is mutated leaves its source's lineage: merging it must
	// not move a mark that later snapshots of the source are checked against.
	k := New()
	mk := k.MergeSince(src.Clone(), Mark{}, nil)
	fork := src.Clone()
	fork.Add("f", nil)
	src.Add("s", nil)
	mk = k.MergeSince(fork, mk, nil)
	k.MergeSince(src.Clone(), mk, nil)
	if !k.Has("f") || !k.Has("s") {
		t.Fatalf("fork merge lost a node: %v", k)
	}
}

// TestExtendSinceMatchesExtend grows random graphs, with placeholder
// dependencies and late edges that the old sequence can absorb, and holds
// ExtendSince to Extend at every step.
func TestExtendSinceMatchesExtend(t *testing.T) {
	late := 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var fast, ref []string
		mark := Mark{}
		for i := 0; i < 80; i++ {
			id := fmt.Sprintf("m%02d", rng.Intn(90))
			// Only messages already ordered before id may become its
			// dependencies, so every extension exists.
			pos := slices.Index(ref, id)
			if pos < 0 {
				pos = len(ref)
			}
			var deps []string
			for _, prev := range ref[:pos] {
				if rng.Intn(6) == 0 {
					deps = append(deps, prev)
				}
			}
			if !g.Has(id) && rng.Intn(4) == 0 {
				deps = append(deps, fmt.Sprintf("m%02d", rng.Intn(90))) // maybe a placeholder
			}
			g.Add(id, deps)
			next, err := g.Extend(ref)
			if err != nil {
				t.Fatalf("seed %d step %d: Extend: %v", seed, i, err)
			}
			got, err := g.ExtendSince(fast, mark)
			if err != nil || !slices.Equal(got, next) {
				t.Fatalf("seed %d step %d: ExtendSince = %v, %v; Extend = %v", seed, i, got, err, next)
			}
			ref, fast, mark = next, got, g.Mark()
		}
		late += g.late
	}
	if late == 0 {
		t.Fatal("no schedule added a late edge; the fallback went untested")
	}
}
