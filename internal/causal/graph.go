// Package causal implements the causality-dependency graph of Algorithm 5
// (ETOB): a DAG over message identifiers where an edge (m1, m2) means
// "m2 causally depends on m1" (m1 ∈ C(m2)), together with the three
// functions the algorithm manipulates it with:
//
//	UpdateCG(m, C(m))   → (*Graph).Add
//	UnionCG(CG_j)       → (*Graph).Union, MergeSince
//	UpdatePromote()     → (*Graph).Extend, ExtendSince
//
// Extend implements the paper's specification exactly: it returns a sequence
// s such that the given prefix is a prefix of s, s contains every message of
// the graph exactly once, and for every edge (m1, m2), m1 appears before m2.
// Ties are broken deterministically (lexicographically by message ID), which
// makes promote sequences reproducible across runs: same-seed runs, and so
// the golden experiment tables, are byte-identical.
//
// Storage is positional and append-only — nodes in insertion order with a
// parallel predecessor table — so Clone is an O(1) snapshot: it shares the
// clipped node and predecessor slices. New nodes are appended past the
// clipped lengths, where no snapshot looks. The only in-place change is a
// late edge — an edge added to a node that already existed, such as a
// placeholder dependency whose own dependencies arrive later — and those
// are written copy-on-write, so a snapshot never observes a later update.
// Since no predecessor list is written below its length, a node merged from
// another graph shares that graph's list instead of copying it.
// The string→position index is rebuilt lazily on clones, and only if the
// clone is itself mutated or queried by ID; the union path walks positions
// directly and never needs it.
//
// Because storage is append-only, a graph's history is a chain of snapshots
// each a prefix of the next. A lineage tag names that chain: New allocates
// one, Clone shares it, and a graph decoded from the wire has none. A Mark
// (lineage, nodes, late edges) records how much of a chain a receiver has
// absorbed, so MergeSince walks only the nodes past the mark, and ExtendSince
// places only the nodes added since the last extension, as long as no late
// edge changed the part already seen. Either falls back to the full walk
// (Union, Extend) otherwise. A graph's mark changes exactly when the graph
// does.
package causal

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Graph is a DAG over message IDs. The zero value is not usable; use New.
type Graph struct {
	nodes []string   // insertion order (stable, deduplicated)
	preds [][]string // preds[i] = C(nodes[i]), the direct causal predecessors
	index map[string]int

	lin    *lineage // chain of snapshots this graph belongs to; nil if decoded
	ownLin bool     // this graph extends lin (New); clones start a new one on mutation
	late   int      // edges added to a node that already existed
	shared int      // preds[:shared] may be seen by a clone: written copy-on-write
	cow    bool     // the preds array itself is still shared with a clone

	ks kahnScratch // kahn's buffers, reused across calls; a clone starts with none
}

// lineage identifies one append-only chain of snapshots. It has a field so
// that distinct allocations have distinct addresses.
type lineage struct{ _ byte }

// Mark records how far a receiver has absorbed a lineage: the number of
// nodes and the late-edge count of the last snapshot it merged. From the
// zero Mark, MergeSince and ExtendSince assume nothing was seen.
type Mark struct {
	lin     *lineage
	n, late int
}

// New returns an empty causality graph.
func New() *Graph {
	return &Graph{index: make(map[string]int), lin: new(lineage), ownLin: true}
}

// Mark returns g's current mark.
func (g *Graph) Mark() Mark { return Mark{lin: g.lin, n: len(g.nodes), late: g.late} }

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

// mutate is called before every change. A clone that changes is no longer a
// prefix of its source's later snapshots, so it starts a lineage of its own.
func (g *Graph) mutate() {
	if !g.ownLin {
		g.lin, g.ownLin = new(lineage), true
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
// edge that is new to the graph). Callers that track which messages have
// causal successors hook onNewEdge instead of diffing dependency snapshots.
func (g *Graph) AddReporting(m string, deps []string, onNewEdge func(dep string)) {
	g.add(m, deps, false, onNewEdge)
}

// add is AddReporting. A new node's predecessor list takes one allocation,
// sized to deps, or none if share is set and deps names neither m nor any
// node twice: then the list is deps itself, clipped. MergeSince shares
// another graph's lists this way, because no graph writes a list below its
// length (see addPred).
func (g *Graph) add(m string, deps []string, share bool, onNewEdge func(dep string)) {
	g.ensureIndex()
	mi, fresh := g.addNode(m)
	if fresh && share && distinct(m, deps) {
		g.preds[mi] = deps[:len(deps):len(deps)]
		for _, d := range deps {
			g.addNode(d)
			if onNewEdge != nil {
				onNewEdge(d)
			}
		}
		return
	}
	if fresh && len(deps) > 0 {
		g.preds[mi] = make([]string, 0, len(deps))
	}
	for _, d := range deps {
		g.addNode(d)
		if d == m {
			continue // self-loops are meaningless; drop defensively
		}
		if !containsStr(g.preds[mi], d) {
			g.addPred(mi, d, fresh)
			if onNewEdge != nil {
				onNewEdge(d)
			}
		}
	}
}

func (g *Graph) addNode(m string) (pos int, isNew bool) {
	if i, ok := g.index[m]; ok {
		return i, false
	}
	g.mutate()
	i := len(g.nodes)
	g.index[m] = i
	g.nodes = append(g.nodes, m)
	g.preds = append(g.preds, nil)
	return i, true
}

// addPred appends d to C(nodes[i]). An edge on a node that was not created
// by this same AddReporting call is late. Entries a clone can see are
// written copy-on-write: the preds array is copied once per Clone, and the
// list itself is clipped so the append reallocates.
func (g *Graph) addPred(i int, d string, fresh bool) {
	g.mutate()
	if !fresh {
		g.late++
	}
	ps := g.preds[i]
	if i < g.shared {
		if g.cow {
			g.preds = slices.Clone(g.preds)
			g.cow = false
		}
		ps = ps[:len(ps):len(ps)]
	}
	g.preds[i] = append(ps, d)
}

// Union merges all of other into g (UnionCG): MergeSince from the zero Mark.
func (g *Graph) Union(other *Graph) {
	g.MergeSince(other, Mark{}, nil)
}

// MergeSince merges other into g given m, the mark an earlier MergeSince
// into g returned for other's sender, and returns the mark to pass next
// time. It calls onNewEdge for every edge that is new to g, once per
// appended predecessor, in other's insertion order.
//
// If other continues m's lineage with no new late edge, only the nodes past
// m are walked, and a snapshot no newer than m is skipped: its content is
// already in g. A different or missing lineage (a restarted sender, a graph
// decoded from the wire) or new late edges fall back to walking all of
// other. Either way the walk reads other's positional storage directly, so
// snapshots without an index merge without rebuilding one.
func (g *Graph) MergeSince(other *Graph, m Mark, onNewEdge func(dep string)) Mark {
	if other == nil {
		return m
	}
	start := 0
	if other.lin != nil && other.lin == m.lin {
		if other.late < m.late || (other.late == m.late && len(other.nodes) <= m.n) {
			return m
		}
		if other.late == m.late {
			start = m.n
		}
	}
	for i := start; i < len(other.nodes); i++ {
		g.add(other.nodes[i], other.preds[i], true, onNewEdge)
	}
	return other.Mark()
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

// NodesFrom returns the messages at insertion positions i and later, as a
// read-only view of the graph's storage.
func (g *Graph) NodesFrom(i int) []string {
	return g.nodes[i:len(g.nodes):len(g.nodes)]
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

// Clone returns a snapshot of the graph in O(1): it shares g's lineage and
// its node and predecessor slices, clipped to their current lengths. Later
// nodes of either graph are appended past the clip, and late edges are
// written copy-on-write (see addPred), so neither graph ever observes the
// other's later updates. The index is rebuilt lazily, only if the clone is
// mutated or queried by ID. A clone that is mutated leaves g's lineage.
func (g *Graph) Clone() *Graph {
	n := len(g.nodes)
	g.shared, g.cow = n, true
	return &Graph{
		nodes:  g.nodes[:n:n],
		preds:  g.preds[:n:n],
		lin:    g.lin,
		late:   g.late,
		shared: n,
		cow:    true,
	}
}

// Extend implements UpdatePromote: it returns a sequence that (a) has prefix
// as a prefix, (b) contains every node of g exactly once, and (c) respects
// every edge of g. Nodes already in prefix keep their positions; missing
// nodes are appended in Kahn topological order with lexicographic tie-breaks.
//
// Extend reports an error if the graph has a dependency cycle, or if prefix
// cannot be kept while respecting every edge: a prefix member that depends on
// a later prefix member, or on a node outside the prefix (neither can arise
// from Algorithm 5's closed-graph updates; the error guards against protocol
// bugs).
func (g *Graph) Extend(prefix []string) ([]string, error) {
	inPrefix := make(map[string]int, len(prefix))
	for i, m := range prefix {
		if _, dup := inPrefix[m]; dup {
			return nil, fmt.Errorf("causal: prefix contains %q twice", m)
		}
		inPrefix[m] = i
	}
	g.ensureIndex()
	for i, m := range prefix {
		mi, ok := g.index[m]
		if !ok {
			continue
		}
		for _, d := range g.preds[mi] {
			j, ok := inPrefix[d]
			if !ok {
				return nil, fmt.Errorf("causal: prefix member %q depends on %q outside the prefix", m, d)
			}
			if j > i {
				return nil, fmt.Errorf("causal: prefix violates edge (%q before %q)", d, m)
			}
		}
	}
	slot := make([]int, len(g.nodes))
	var missing []int
	for p, m := range g.nodes {
		if _, ok := inPrefix[m]; ok {
			slot[p] = -1
			continue
		}
		slot[p] = len(missing)
		missing = append(missing, p)
	}
	out := append(make([]string, 0, len(prefix)+len(missing)), prefix...)
	return g.kahn(out, missing, func(p int) int { return slot[p] })
}

// ExtendSince is Extend(seq) for the case UpdatePromote meets: seq is what
// Extend or ExtendSince returned when g's mark was m, so it holds exactly the
// first m.n nodes, in an order that respects every edge among them. If no
// late edge has been added since, no edge into those nodes changed, and
// placing the nodes added after them — Kahn over those alone — returns what
// Extend(seq) would, in O(new nodes + their edges). Otherwise, or if seq and
// m do not fit g, it is Extend(seq). The new nodes are appended to seq in
// place, so callers that handed out views of seq must have clipped them.
func (g *Graph) ExtendSince(seq []string, m Mark) ([]string, error) {
	if m.lin == nil || m.lin != g.lin || m.late != g.late || m.n != len(seq) || m.n > len(g.nodes) {
		return g.Extend(seq)
	}
	g.ensureIndex()
	if len(g.nodes) == m.n+1 && g.depsPlaced(m.n) {
		// The usual update: one new node, after all of its predecessors.
		return append(seq, g.nodes[m.n]), nil
	}
	missing := g.ks.missing[:0]
	for p := m.n; p < len(g.nodes); p++ {
		missing = append(missing, p)
	}
	g.ks.missing = missing
	return g.kahn(seq, missing, func(p int) int { return p - m.n })
}

// depsPlaced reports whether every predecessor of the node at position p is
// a node at an earlier position. g's index must be built.
func (g *Graph) depsPlaced(p int) bool {
	for _, d := range g.preds[p] {
		if q, ok := g.index[d]; !ok || q >= p {
			return false
		}
	}
	return true
}

// kahnScratch holds kahn's per-call buffers, so that a call allocates only
// when it places more nodes than any call before it.
type kahnScratch struct {
	missing, indeg, ready []int
	succs                 [][]int
}

// kahn appends the nodes at positions missing to out in topological order,
// always taking the lexicographically least ready node. slotOf maps a
// position to its index in missing, or to a negative number if that node is
// already placed. g's index must be built.
func (g *Graph) kahn(out []string, missing []int, slotOf func(pos int) int) ([]string, error) {
	ks := &g.ks
	indeg := slices.Grow(ks.indeg[:0], len(missing))[:len(missing)]
	clear(indeg)
	succs := slices.Grow(ks.succs[:0], len(missing))[:len(missing)]
	for s := range succs {
		succs[s] = succs[s][:0]
	}
	ks.indeg, ks.succs = indeg, succs
	for s, p := range missing {
		for _, d := range g.preds[p] {
			q, ok := g.index[d]
			if !ok {
				return nil, fmt.Errorf("causal: %q depends on %q, which is not a node", g.nodes[p], d)
			}
			if t := slotOf(q); t >= 0 {
				indeg[s]++
				succs[t] = append(succs[t], s)
			}
		}
	}
	name := func(s int) string { return g.nodes[missing[s]] }
	// ready[head:] are the slots with no unplaced predecessor, sorted by name.
	ready, head := ks.ready[:0], 0
	push := func(s int) {
		i, _ := slices.BinarySearchFunc(ready[head:], name(s), func(r int, key string) int {
			return strings.Compare(name(r), key)
		})
		ready = slices.Insert(ready, head+i, s)
	}
	for s := range missing {
		if indeg[s] == 0 {
			push(s)
		}
	}
	placed := 0
	for head < len(ready) {
		s := ready[head]
		head++
		out = append(out, name(s))
		placed++
		for _, t := range succs[s] {
			if indeg[t]--; indeg[t] == 0 {
				push(t)
			}
		}
	}
	ks.ready = ready
	if placed != len(missing) {
		return nil, fmt.Errorf("causal: dependency cycle among %d messages", len(missing)-placed)
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

// distinct reports whether deps holds neither m nor any ID twice.
func distinct(m string, deps []string) bool {
	for i, d := range deps {
		if d == m || containsStr(deps[:i], d) {
			return false
		}
	}
	return true
}

func containsStr(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
