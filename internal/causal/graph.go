// Package causal implements the causality-dependency graph of Algorithm 5
// (ETOB): a DAG over message identifiers where an edge (m1, m2) means
// "m2 causally depends on m1" (m1 ∈ C(m2)), together with the three
// functions the algorithm manipulates it with:
//
//	UpdateCG(m, C(m))   → (*Graph).Add
//	UnionCG(CG_j)       → (*Graph).Union
//	UpdatePromote()     → (*Graph).Extend
//
// Extend implements the paper's specification exactly: it returns a sequence
// s such that the given prefix is a prefix of s, s contains every message of
// the graph exactly once, and for every edge (m1, m2), m1 appears before m2.
// Ties are broken deterministically (lexicographically by message ID), which
// makes promote sequences reproducible across runs: same-seed runs, and so
// the golden experiment tables, are byte-identical.
//
// Storage is positional — nodes in insertion order with a parallel
// predecessor table — so Clone is a copy-on-write snapshot: it copies slice
// headers, not map entries. Every mutation appends past the clipped lengths
// (or reallocates), so snapshots carried inside protocol messages can never
// observe the owner's later updates. The string→position index is rebuilt
// lazily on clones, and only if the clone is itself mutated or queried by ID;
// the union path (MergeFrom) walks positions directly and never needs it.
package causal

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is a DAG over message IDs. The zero value is not usable; use New.
type Graph struct {
	nodes []string   // insertion order (stable, deduplicated)
	preds [][]string // preds[i] = C(nodes[i]), the direct causal predecessors
	index map[string]int
}

// New returns an empty causality graph.
func New() *Graph {
	return &Graph{index: make(map[string]int)}
}

// ensureIndex rebuilds the string→position index after a Clone dropped it.
func (g *Graph) ensureIndex() {
	if g.index != nil {
		return
	}
	g.index = make(map[string]int, len(g.nodes))
	for i, m := range g.nodes {
		g.index[m] = i
	}
}

// Add inserts message m with direct causal predecessors deps (UpdateCG).
// Predecessors not yet present are inserted as nodes too, so the graph stays
// closed under dependency. Re-adding an existing node merges dependency sets.
func (g *Graph) Add(m string, deps []string) {
	g.AddReporting(m, deps, nil)
}

// AddReporting is Add with frontier bookkeeping support: it calls onNewEdge
// for every predecessor it actually appends to m's dependency set (i.e. every
// edge that is new to the graph), and reports whether the call changed the
// graph at all (new node or new edge). Callers that track causal-successor
// counts hook onNewEdge instead of diffing dependency snapshots.
func (g *Graph) AddReporting(m string, deps []string, onNewEdge func(dep string)) (changed bool) {
	g.ensureIndex()
	mi, fresh := g.addNode(m)
	changed = fresh
	for _, d := range deps {
		if _, isNew := g.addNode(d); isNew {
			changed = true
		}
		if d == m {
			continue // self-loops are meaningless; drop defensively
		}
		if !containsStr(g.preds[mi], d) {
			g.preds[mi] = append(g.preds[mi], d)
			changed = true
			if onNewEdge != nil {
				onNewEdge(d)
			}
		}
	}
	return changed
}

func (g *Graph) addNode(m string) (pos int, isNew bool) {
	if i, ok := g.index[m]; ok {
		return i, false
	}
	i := len(g.nodes)
	g.index[m] = i
	g.nodes = append(g.nodes, m)
	g.preds = append(g.preds, nil)
	return i, true
}

// Union merges other into g (UnionCG).
func (g *Graph) Union(other *Graph) {
	g.MergeFrom(other, nil)
}

// MergeFrom merges other into g, calling onNewEdge for every edge that is new
// to g (once per appended predecessor, in other's insertion order) and
// reporting whether g changed. It walks other's positional storage directly,
// so snapshots without an index merge without rebuilding one and no
// dependency copies materialize on this path.
func (g *Graph) MergeFrom(other *Graph, onNewEdge func(dep string)) (changed bool) {
	if other == nil {
		return false
	}
	for i, m := range other.nodes {
		if g.AddReporting(m, other.preds[i], onNewEdge) {
			changed = true
		}
	}
	return changed
}

// Has reports whether m is a node of the graph.
func (g *Graph) Has(m string) bool {
	g.ensureIndex()
	_, ok := g.index[m]
	return ok
}

// HasEdge reports whether d is a direct causal predecessor of m, without
// copying m's dependency set.
func (g *Graph) HasEdge(m, d string) bool {
	g.ensureIndex()
	i, ok := g.index[m]
	return ok && containsStr(g.preds[i], d)
}

// Len returns the number of messages in the graph.
func (g *Graph) Len() int { return len(g.nodes) }

// Nodes returns the messages in insertion order (copy).
func (g *Graph) Nodes() []string {
	return append([]string(nil), g.nodes...)
}

// Deps returns the direct causal predecessors of m (copy).
func (g *Graph) Deps(m string) []string {
	g.ensureIndex()
	i, ok := g.index[m]
	if !ok {
		return nil
	}
	return append([]string(nil), g.preds[i]...)
}

// Clone returns an independent copy of the graph. Protocol messages carry
// clones so that in-memory kernels cannot alias mutable state across
// processes. The copy is O(nodes) slice-header work: the node and
// predecessor arrays are shared copy-on-write (clipped so any later append —
// by the owner or the clone — reallocates instead of overwriting), and the
// index is rebuilt lazily only if the clone is mutated or queried by ID.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		nodes: g.nodes[:len(g.nodes):len(g.nodes)],
		preds: make([][]string, len(g.preds)),
	}
	for i, ps := range g.preds {
		cp.preds[i] = ps[:len(ps):len(ps)]
	}
	return cp
}

// Extend implements UpdatePromote: it returns a sequence that (a) has prefix
// as a prefix, (b) contains every node of g exactly once, and (c) respects
// every edge of g. Nodes already in prefix keep their positions; missing
// nodes are appended in Kahn topological order with lexicographic tie-breaks.
//
// Extend reports an error if the graph has a dependency cycle or if prefix
// itself already violates an edge of the graph between two prefix members
// (neither can arise from Algorithm 5's closed-graph updates; the error guards
// against protocol bugs).
func (g *Graph) Extend(prefix []string) ([]string, error) {
	inPrefix := make(map[string]int, len(prefix))
	for i, m := range prefix {
		if _, dup := inPrefix[m]; dup {
			return nil, fmt.Errorf("causal: prefix contains %q twice", m)
		}
		inPrefix[m] = i
	}
	// Check prefix consistency against edges among prefix members.
	g.ensureIndex()
	for m, i := range inPrefix {
		if mi, ok := g.index[m]; ok {
			for _, d := range g.preds[mi] {
				if j, ok := inPrefix[d]; ok && j > i {
					return nil, fmt.Errorf("causal: prefix violates edge (%q before %q)", d, m)
				}
			}
		}
	}

	out := append(make([]string, 0, len(g.nodes)+len(prefix)), prefix...)

	// Kahn's algorithm over the nodes not in prefix. Edges from prefix nodes
	// are already satisfied.
	indeg := make(map[string]int)
	succs := make(map[string][]string)
	var missing []string
	for i, m := range g.nodes {
		if _, ok := inPrefix[m]; ok {
			continue
		}
		missing = append(missing, m)
		for _, d := range g.preds[i] {
			if _, ok := inPrefix[d]; ok {
				continue
			}
			indeg[m]++
			succs[d] = append(succs[d], m)
		}
	}
	var ready []string
	for _, m := range missing {
		if indeg[m] == 0 {
			ready = append(ready, m)
		}
	}
	sort.Strings(ready)
	appended := 0
	for len(ready) > 0 {
		m := ready[0]
		ready = ready[1:]
		out = append(out, m)
		appended++
		newly := make([]string, 0, len(succs[m]))
		for _, s := range succs[m] {
			indeg[s]--
			if indeg[s] == 0 {
				newly = append(newly, s)
			}
		}
		if len(newly) > 0 {
			ready = append(ready, newly...)
			sort.Strings(ready)
		}
	}
	if appended != len(missing) {
		return nil, fmt.Errorf("causal: dependency cycle among %d messages", len(missing)-appended)
	}
	return out, nil
}

// WireSize estimates the graph's serialized size in bytes: the summed
// lengths of every node ID and every edge endpoint (what a length-prefixed
// codec would ship, modulo framing). The bench suite uses it to charge
// update(CG_i) messages their real, growing cost when comparing
// dissemination modes; it is O(nodes + edges), so per-send callers should
// memoize by graph pointer (clones share storage but not identity).
func (g *Graph) WireSize() int {
	sz := 0
	for i, m := range g.nodes {
		sz += len(m)
		for _, d := range g.preds[i] {
			sz += len(d)
		}
	}
	return sz
}

// String renders the graph as "m1<-{}; m2<-{m1}; ..." in insertion order.
func (g *Graph) String() string {
	var b strings.Builder
	for i, m := range g.nodes {
		if i > 0 {
			b.WriteString("; ")
		}
		deps := append([]string(nil), g.preds[i]...)
		sort.Strings(deps)
		fmt.Fprintf(&b, "%s<-{%s}", m, strings.Join(deps, ","))
	}
	return b.String()
}

func containsStr(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
