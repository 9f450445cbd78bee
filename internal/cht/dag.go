// Package cht implements the paper's generalization of the
// Chandra–Hadzilacos–Toueg ("CHT") reduction: from any algorithm A solving
// eventual consensus with a failure detector D, emulate Ω (§4, Lemma 1), and
// the classical consensus variant it extends (Appendix B).
//
// The machinery, mirroring the paper's structure:
//
//   - DAG (Figure 1): an ever-growing directed acyclic graph of failure
//     detector samples [q, d, k] whose edges reflect the temporal order of
//     the samples. Built here by simulating the communication task of the
//     reduction algorithm (periodic sampling + gossip) against a failure
//     pattern and a detector history.
//   - Simulation tree (Figure 2, §4): all schedules of A compatible with
//     paths through the DAG, with proposal values branching at invocation
//     points (the paper's input histories).
//   - k-tags / valency (§4): tags {0,1,⊥} per consensus instance k, computed
//     over all descendants; k-bivalent vertices drive the extraction.
//   - Critical index (Appendix B.6) for the classical variant's simulation
//     forest over initial configurations I^0..I^n.
//   - Decision gadgets (Figures 3–5): forks and hooks whose deciding process
//     is provably correct (Lemma 8).
//   - Extraction (Figure 6 / Algorithm 3): every process periodically
//     recomputes its DAG view and outputs a leader estimate; estimates
//     stabilize on the same correct process.
//
// The paper's construction is a limit argument over infinite DAGs and trees;
// this implementation reproduces it over monotonically growing finite DAGs
// and exposes the stabilization behavior the proof describes: the extracted
// leader settles once the DAG prefix is long enough, which is all a finite
// run can observe of the limit.
//
// # Execution engine
//
// The simulation trees are executed on an interned engine (intern.go,
// tree.go). Algorithm states, message payloads, whole messages, and whole
// configurations are mapped to dense int32 IDs by an Interner, so a
// configuration is a value of small integer slices, node deduplication is an
// integer-key map lookup (configuration ID, last DAG vertex), and the
// fmt-formatted canonical strings survive only at trace/debug boundaries:
// the per-node encoding that fixes the deterministic enumeration order is
// rendered once per unique node, never per simulated step.
//
// Algorithms step through the string-based Algorithm interface — the
// reference semantics — or, when they also implement StructuredAlgorithm,
// through a structured fast path: the engine caches one decoded state per
// interned state ID, steps on it directly, and re-encodes only when a step
// actually changed the state. Equivalence of the two paths is pinned by
// tests (equivalence_test.go).
//
// Trees grow incrementally (TreeCache). This is sound because the reduction
// only ever consumes monotone prefixes of one growing DAG (the paper's
// ever-growing Υ over G): BuildDAG adds edges only into newly created
// vertices, and every tree edge strictly increases the DAG vertex index, so
// (a) the simulation tree over the first m vertices consists exactly of the
// nodes whose last step uses a vertex < m, (b) growing the DAG appends
// one-step extensions over new vertices but never revisits or reorders the
// settled prefix, and (c) the deterministic enumeration (by last vertex,
// then canonical encoding) is append-only. A per-prefix view therefore needs
// only a fresh valency (k-tag) pass, not a re-exploration; EmulateOmega
// carries one TreeCache per forest tree across all rounds and lagged
// per-process views.
package cht

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/fd"
	"repro/internal/model"
)

// Vertex is a failure-detector sample [q, d, k]: process q obtained value d
// from its k-th query. Index is the global creation order (the paper's
// temporal order τ(v)), which extraction uses to order tree vertices.
type Vertex struct {
	Index int
	P     model.ProcID
	D     any
	K     int
	Time  model.Time // τ(v): the global time of the sample
}

// String renders "[p2, d, 3]".
func (v Vertex) String() string {
	return fmt.Sprintf("[%v, %v, %d]", v.P, v.D, v.K)
}

// DAG is a finite prefix of the limit DAG G of the reduction's communication
// task. It is transitively closed by construction.
type DAG struct {
	vertices []Vertex
	preds    [][]int // preds[i]: sorted indices with an edge into i
	succs    [][]int // succs[i]: sorted indices reachable by one edge from i
	byProc   map[model.ProcID][]int
}

// Len returns the number of vertices.
func (g *DAG) Len() int { return len(g.vertices) }

// Vertex returns the vertex with the given index.
func (g *DAG) Vertex(i int) Vertex { return g.vertices[i] }

// Succs returns the indices of the successors of vertex i (do not modify).
func (g *DAG) Succs(i int) []int { return g.succs[i] }

// Preds returns the indices of the predecessors of vertex i (do not modify).
func (g *DAG) Preds(i int) []int { return g.preds[i] }

// ByProc returns the vertex indices of process p in query order.
func (g *DAG) ByProc(p model.ProcID) []int { return g.byProc[p] }

// Roots returns the vertices with no predecessors.
func (g *DAG) Roots() []int {
	var out []int
	for i := range g.vertices {
		if len(g.preds[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// HasEdge reports whether there is an edge i → j.
func (g *DAG) HasEdge(i, j int) bool {
	k := sort.SearchInts(g.succs[i], j)
	return k < len(g.succs[i]) && g.succs[i][k] == j
}

// Prefix returns the sub-DAG induced by the first m vertices (a process's
// lagged view of the growing limit DAG). Prefixes of a transitively closed
// DAG built by sampleBuilder are themselves valid DAGs.
func (g *DAG) Prefix(m int) *DAG {
	if m > len(g.vertices) {
		m = len(g.vertices)
	}
	sub := &DAG{
		vertices: g.vertices[:m],
		preds:    make([][]int, m),
		succs:    make([][]int, m),
		byProc:   make(map[model.ProcID][]int),
	}
	for i := 0; i < m; i++ {
		for _, p := range g.preds[i] {
			if p < m {
				sub.preds[i] = append(sub.preds[i], p)
			}
		}
		for _, s := range g.succs[i] {
			if s < m {
				sub.succs[i] = append(sub.succs[i], s)
			}
		}
		sub.byProc[g.vertices[i].P] = append(sub.byProc[g.vertices[i].P], i)
	}
	return sub
}

// String renders a compact description of the DAG.
func (g *DAG) String() string {
	var b strings.Builder
	for i, v := range g.vertices {
		fmt.Fprintf(&b, "%d:%v", i, v)
		if len(g.succs[i]) > 0 {
			fmt.Fprintf(&b, "->%v", g.succs[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BuildOptions configure the communication-task simulation that grows a DAG.
type BuildOptions struct {
	// SamplesPerProcess is how many failure-detector queries each correct
	// process performs (the k range).
	SamplesPerProcess int
	// QueryInterval is the global time between consecutive sampling steps.
	// Default 10.
	QueryInterval model.Time
	// MaxLag bounds how stale a process's knowledge of other processes'
	// samples may be, in sampling steps (gossip delay). Default 1.
	MaxLag int
	// Seed drives the (deterministic) gossip-delay choices.
	Seed int64
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.SamplesPerProcess <= 0 {
		o.SamplesPerProcess = 3
	}
	if o.QueryInterval <= 0 {
		o.QueryInterval = 10
	}
	if o.MaxLag < 0 {
		o.MaxLag = 0
	}
	if o.MaxLag == 0 {
		o.MaxLag = 1
	}
	return o
}

// BuildDAG simulates the communication task of Figure 1 against the failure
// pattern and detector history: processes take sampling steps round-robin
// (skipping crashed ones); at each step the process queries D at the current
// global time, connects every vertex it currently knows (its own vertices
// plus every vertex older than a bounded gossip lag) to the new vertex, and
// the new vertex becomes available to others after the lag.
//
// Each sample reads det directly; the shipped histories answer in O(1).
// Predecessor sets are assembled without scratch maps: a process's knowledge
// is the contiguous gossip window [0, cutoff) plus its own later samples,
// already sorted.
//
// The resulting DAG satisfies the paper's properties (1)–(4) on its finite
// prefix: samples are consistent with H and F, edges respect temporal order,
// consecutive samples of one process are connected, and the graph is
// transitively closed (knowledge sets are downward closed).
func BuildDAG(fp *model.FailurePattern, det fd.Detector, opts BuildOptions) *DAG {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	g := &DAG{byProc: make(map[model.ProcID][]int)}

	type known struct {
		cutoff int // knows all vertices with Index < cutoff
		own    []int
	}
	n := fp.N()
	procs := model.Procs(n)
	views := make(map[model.ProcID]*known, n)
	for _, p := range procs {
		views[p] = &known{}
	}

	now := model.Time(0)
	for s := 0; s < opts.SamplesPerProcess; s++ {
		// The clock advances per process slot whether or not the process is
		// alive, and crashed processes take no sample.
		for _, p := range procs {
			now += opts.QueryInterval
			if fp.Crashed(p, now) {
				continue
			}
			v := views[p]
			// Gossip: advance the cutoff to within MaxLag (in vertices) of the
			// present, at a random but monotone rate.
			maxCut := len(g.vertices)
			minCut := maxCut - opts.MaxLag*n
			if minCut < v.cutoff {
				minCut = v.cutoff
			}
			if maxCut > minCut {
				v.cutoff = minCut + rng.Intn(maxCut-minCut+1)
			} else {
				v.cutoff = maxCut
			}

			idx := len(g.vertices)
			g.vertices = append(g.vertices, Vertex{
				Index: idx,
				P:     p,
				D:     det.Value(p, now),
				K:     len(v.own) + 1,
				Time:  now,
			})
			g.preds = append(g.preds, nil)
			g.succs = append(g.succs, nil)
			g.byProc[p] = append(g.byProc[p], idx)

			// Edges from every known vertex: the contiguous window
			// [0, cutoff) plus own samples at or past the cutoff. own is
			// ascending, so the union is already sorted — no set, no sort.
			preds := make([]int, 0, v.cutoff+len(v.own))
			for i := 0; i < v.cutoff; i++ {
				preds = append(preds, i)
			}
			for _, o := range v.own {
				if o >= v.cutoff {
					preds = append(preds, o)
				}
			}
			g.preds[idx] = preds
			for _, i := range preds {
				g.succs[i] = append(g.succs[i], idx)
			}
			v.own = append(v.own, idx)
		}
	}
	// Successors accumulate in creation order, which is ascending already;
	// keep the normalization pass as a cheap invariant guard.
	for i := range g.succs {
		sort.Ints(g.succs[i])
	}
	return g
}

// CheckProperties verifies the paper's DAG properties (1)–(3) on g for the
// given failure pattern and detector (property (4) is a limit property,
// witnessed by growth across rounds). It returns a list of violations.
func (g *DAG) CheckProperties(fp *model.FailurePattern, det fd.Detector) []string {
	var bad []string
	for i, v := range g.vertices {
		// (1a) sample consistent with F and H.
		if fp.Crashed(v.P, v.Time) {
			bad = append(bad, fmt.Sprintf("vertex %d: %v crashed at sample time %d", i, v.P, v.Time))
		}
		if got := det.Value(v.P, v.Time); fmt.Sprint(got) != fmt.Sprint(v.D) {
			bad = append(bad, fmt.Sprintf("vertex %d: sample %v != H(%v,%d)=%v", i, v.D, v.P, v.Time, got))
		}
		// (1b) edges respect temporal order.
		for _, j := range g.succs[i] {
			if g.vertices[j].Time <= v.Time {
				bad = append(bad, fmt.Sprintf("edge %d->%d violates temporal order", i, j))
			}
		}
	}
	// (2) consecutive samples of one process are connected.
	for p, idxs := range g.byProc {
		for x := 0; x+1 < len(idxs); x++ {
			if !g.HasEdge(idxs[x], idxs[x+1]) {
				bad = append(bad, fmt.Sprintf("%v: samples k=%d,k=%d not connected", p, x+1, x+2))
			}
		}
	}
	// (3) transitivity.
	for i := range g.vertices {
		for _, j := range g.succs[i] {
			for _, l := range g.succs[j] {
				if !g.HasEdge(i, l) {
					bad = append(bad, fmt.Sprintf("transitivity broken: %d->%d->%d but no %d->%d", i, j, l, i, l))
				}
			}
		}
	}
	return bad
}
