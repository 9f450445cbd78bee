package cht

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/model"
)

// edgeKind distinguishes the three step flavors of §2: accepting an input
// (an invocation of proposeEC), receiving a message, or receiving λ.
type edgeKind uint8

const (
	edgeInvoke edgeKind = iota + 1
	edgeMsg
	edgeLambda
)

// noMsg is the message-ID sentinel for invoke and λ edges.
const noMsg int32 = -1

// treeEdge is one step extension in the simulation tree: the DAG vertex that
// supplied the failure detector value, the step flavor, and the interned
// message consumed (noMsg unless kind == edgeMsg). Everything is an integer;
// the engine's hot loop never touches a string.
type treeEdge struct {
	vertex int32
	kind   edgeKind
	ival   int8  // invoke: proposed value
	msg    int32 // interned message ID consumed (kind == edgeMsg)
	child  int32 // child node, by creation index
}

// treeNode is a vertex of the simulation tree, deduplicated by (interned
// configuration, last DAG vertex): distinct schedules reaching the same
// configuration via the same sample frontier have identical futures, so the
// tree is explored as a DAG (the paper's Υ is its unfolding).
type treeNode struct {
	cfgID int32 // interned configuration
	last  int32 // DAG vertex of the last step, -1 at the root
	// nextSucc counts how many successor vertices of `last` (all DAG
	// vertices, for the root) have been expanded, which is what makes growth
	// incremental: extending the DAG resumes every node exactly where its
	// sorted successor list left off.
	nextSucc int32
	order    int32 // position in the deterministic enumeration (byOrder)
	edges    []treeEdge
	enc      string // canonical configuration encoding (ordering/debug only)
}

// NodeID identifies a tree node inside its engine (by creation index). It is
// the handle Explorer's valency and gadget queries take.
type NodeID int32

// engine is the interned simulation-tree engine. It owns the interner, the
// append-only node store, and the deterministic enumeration, and it grows
// incrementally: incorporating DAG vertices [0, m) is resumable, so a
// monotonically growing DAG (the paper's ever-growing G) reuses every node
// and edge discovered for its earlier prefixes.
type engine struct {
	alg         Algorithm
	salg        StructuredAlgorithm // non-nil when alg has the fast path
	n           int
	L           int
	fixedInputs []int
	maxNodes    int

	in  *Interner
	dag *DAG

	dagLen    int // DAG vertices incorporated so far
	nodes     []treeNode
	nodeIdx   map[int64]int32 // (cfgID, last) → creation index
	byOrder   []int32         // creation indices sorted by (last, enc); append-only
	truncated bool

	// Reusable scratch (single-threaded, like the engine).
	scrStates    []int32
	scrBuffer    []int32
	scrDecided   []uint8
	scrInvoked   []int32
	scrResponded []int32
	scrSends     []SimMsg
	encBuf       []byte
	queue        []int32
	reachBuf     []uint8
	subBuf       []int32
	visited      []bool
}

func newEngine(alg Algorithm, n int, fixedInputs []int, maxNodes int) *engine {
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	e := &engine{
		alg:         alg,
		n:           n,
		L:           alg.MaxInstance(),
		fixedInputs: fixedInputs,
		maxNodes:    maxNodes,
		in:          NewInterner(),
		nodeIdx:     make(map[int64]int32),
	}
	if s, ok := alg.(StructuredAlgorithm); ok {
		e.salg = s
	}
	return e
}

func nodeKey(cfgID, last int32) int64 {
	return int64(cfgID)<<32 | int64(uint32(last+1))
}

// reset drops the tree (but keeps the interner: states, payloads, and
// configurations stay valid across DAGs). Used when a caller hands the cache
// a DAG that does not extend the previous one.
func (e *engine) reset() {
	e.dag = nil
	e.dagLen = 0
	e.nodes = e.nodes[:0]
	e.byOrder = e.byOrder[:0]
	e.nodeIdx = make(map[int64]int32)
	e.truncated = false
}

// extendsPrior reports whether dag's first e.dagLen vertices match the
// incorporated prefix — the monotone-growth property of BuildDAG under a
// fixed seed, detector, and gossip configuration. Samples (including the
// detector value) and the predecessor structure are both checked: a
// same-shape DAG from a different seed or detector must reset the tree, not
// silently reuse successor cursors computed against different edges. The
// check runs once per new DAG object (not per view) and is O(prefix edges),
// the same order as one valency pass.
func (e *engine) extendsPrior(dag *DAG) bool {
	if dag.Len() < e.dagLen {
		return false
	}
	if e.dag == dag {
		return true
	}
	for i := 0; i < e.dagLen; i++ {
		a, b := e.dag.Vertex(i), dag.Vertex(i)
		if a.P != b.P || a.K != b.K || a.Time != b.Time {
			return false
		}
		// DeepEqual, not ==: detector values may be uncomparable slices
		// (SigmaValue, SuspectValue), which == would panic on.
		if !reflect.DeepEqual(a.D, b.D) {
			return false
		}
		ap, bp := e.dag.Preds(i), dag.Preds(i)
		if len(ap) != len(bp) {
			return false
		}
		for j := range ap {
			if ap[j] != bp[j] {
				return false
			}
		}
	}
	return true
}

// extendTo incorporates DAG vertices [0, m) into the tree, reusing all work
// done for shorter prefixes. Soundness of the reuse rests on two structural
// facts: (a) BuildDAG only ever adds edges into newly created vertices, so an
// old vertex's successor list gains only indices ≥ the old length, and (b)
// every tree edge strictly increases the DAG vertex index, so a node's
// one-step extensions over vertices < m are final once computed — growing the
// DAG can only append extensions over the new vertices. Consequently the node
// set of the prefix-m tree is exactly {nodes with last < m} and never changes
// retroactively (see the package documentation).
func (e *engine) extendTo(dag *DAG, m int) error {
	if m > dag.Len() {
		m = dag.Len()
	}
	if !e.extendsPrior(dag) {
		e.reset()
	}
	e.dag = dag
	firstNew := len(e.nodes)
	if len(e.nodes) == 0 {
		e.initRoot()
	}
	if m > e.dagLen {
		// Every existing node may gain extensions over the new vertices;
		// nodes created along the way expand exactly once too.
		e.queue = e.queue[:0]
		for i := range e.nodes {
			e.queue = append(e.queue, int32(i))
		}
		for qi := 0; qi < len(e.queue); qi++ {
			e.expandNode(e.queue[qi], m)
			if len(e.nodes) > e.maxNodes {
				e.truncated = true
				return fmt.Errorf("cht: simulation tree exceeded %d nodes (shrink the DAG)", e.maxNodes)
			}
		}
		e.dagLen = m
	}
	e.enumerate(firstNew)
	return nil
}

// initRoot builds and interns the initial configuration.
func (e *engine) initRoot() {
	e.scrStates = e.scrStates[:0]
	for _, p := range model.Procs(e.n) {
		e.scrStates = append(e.scrStates, e.in.State(e.alg.InitState(p, e.n)))
	}
	e.scrBuffer = e.scrBuffer[:0]
	e.scrDecided = append(e.scrDecided[:0], make([]uint8, e.L)...)
	e.scrInvoked = append(e.scrInvoked[:0], make([]int32, e.n)...)
	e.scrResponded = append(e.scrResponded[:0], make([]int32, e.n)...)
	cfgID, _ := e.in.Config(e.scrStates, e.scrBuffer, e.scrDecided, e.scrInvoked, e.scrResponded)
	e.nodes = append(e.nodes, treeNode{cfgID: cfgID, last: -1})
	e.nodeIdx[nodeKey(cfgID, -1)] = 0
}

// expandNode generates the one-step extensions of node ni over DAG vertices
// < m that were not processed yet.
func (e *engine) expandNode(ni int32, m int) {
	last := e.nodes[ni].last
	if last < 0 {
		for vi := e.nodes[ni].nextSucc; int(vi) < m; vi++ {
			e.addEdgesFor(ni, vi)
		}
		e.nodes[ni].nextSucc = int32(m)
		return
	}
	succs := e.dag.Succs(int(last))
	i := e.nodes[ni].nextSucc
	for ; int(i) < len(succs) && succs[i] < m; i++ {
		e.addEdgesFor(ni, int32(succs[i]))
	}
	e.nodes[ni].nextSucc = i
}

// pendingInvoke reports whether process q's next step must accept an input:
// it has not invoked proposeEC_1 yet, or it has responded to its current
// instance and the next one is within the cap ("every process invokes
// proposeEC_j as soon as it returns a response to proposeEC_{j-1}").
func (e *engine) pendingInvoke(cfg *frozenConfig, q model.ProcID) bool {
	inv := cfg.invoked[q-1]
	if inv == 0 {
		return true
	}
	return cfg.responded[q-1] == inv && int(inv) < e.L
}

// addEdgesFor generates every extension of node ni at DAG vertex vi.
func (e *engine) addEdgesFor(ni, vi int32) {
	v := e.dag.Vertex(int(vi))
	q := v.P
	cfg := e.in.ConfigValue(e.nodes[ni].cfgID)
	if e.pendingInvoke(cfg, q) {
		inst := int(cfg.invoked[q-1]) + 1
		if e.fixedInputs != nil && inst == 1 {
			e.addInvokeEdge(ni, vi, inst, e.fixedInputs[q-1])
		} else {
			e.addInvokeEdge(ni, vi, inst, 0)
			e.addInvokeEdge(ni, vi, inst, 1)
		}
		return
	}
	// λ-step plus one step per distinct pending message for q. The buffer is
	// sorted by (to, from, payload), so q's messages are contiguous and
	// duplicates are adjacent equal IDs.
	e.addStepEdge(ni, vi, noMsg, v.D)
	prev := noMsg
	for _, mid := range e.in.ConfigValue(e.nodes[ni].cfgID).buffer {
		if e.in.msgMeta(mid).To != q {
			continue
		}
		if mid == prev {
			continue
		}
		prev = mid
		e.addStepEdge(ni, vi, mid, v.D)
	}
}

// loadScratch copies cfg into the engine's working scratch.
func (e *engine) loadScratch(cfg *frozenConfig) {
	e.scrStates = append(e.scrStates[:0], cfg.states...)
	e.scrBuffer = append(e.scrBuffer[:0], cfg.buffer...)
	e.scrDecided = append(e.scrDecided[:0], cfg.decided...)
	e.scrInvoked = append(e.scrInvoked[:0], cfg.invoked...)
	e.scrResponded = append(e.scrResponded[:0], cfg.responded...)
}

// insertMsgs interns and inserts sends into the sorted scratch buffer.
func (e *engine) insertMsgs(sends []SimMsg) {
	for _, sm := range sends {
		mid := e.in.Msg(sm)
		pos := len(e.scrBuffer)
		for pos > 0 && e.in.msgLess(mid, e.scrBuffer[pos-1]) {
			pos--
		}
		e.scrBuffer = append(e.scrBuffer, 0)
		copy(e.scrBuffer[pos+1:], e.scrBuffer[pos:])
		e.scrBuffer[pos] = mid
	}
}

// removeMsg removes one occurrence of mid from the scratch buffer.
func (e *engine) removeMsg(mid int32) {
	for i, b := range e.scrBuffer {
		if b == mid {
			e.scrBuffer = append(e.scrBuffer[:i], e.scrBuffer[i+1:]...)
			return
		}
	}
}

func (e *engine) addInvokeEdge(ni, vi int32, inst, val int) {
	cfg := e.in.ConfigValue(e.nodes[ni].cfgID)
	e.loadScratch(cfg)
	q := e.dag.Vertex(int(vi)).P
	st, sends := e.alg.Invoke(q, e.n, e.in.StateString(cfg.states[q-1]), inst, val)
	e.scrStates[q-1] = e.in.State(st)
	e.scrInvoked[q-1] = int32(inst)
	e.insertMsgs(sends)
	e.attach(ni, treeEdge{vertex: vi, kind: edgeInvoke, ival: int8(val), msg: noMsg})
}

func (e *engine) addStepEdge(ni, vi, mid int32, d any) {
	cfg := e.in.ConfigValue(e.nodes[ni].cfgID)
	e.loadScratch(cfg)
	q := e.dag.Vertex(int(vi)).P
	var mptr *SimMsg
	var mval SimMsg
	if mid != noMsg {
		mval = e.in.MsgValue(mid)
		mptr = &mval
		e.removeMsg(mid)
	}

	stateID := cfg.states[q-1]
	var sends []SimMsg
	var decs []Decided
	if e.salg != nil {
		stv := e.in.decoded[stateID]
		if stv == nil {
			stv = e.salg.DecodeState(e.n, e.in.StateString(stateID))
			e.in.decoded[stateID] = stv
		}
		next, changed, s2, d2 := e.salg.StepStructured(q, e.n, stv, mptr, d)
		sends, decs = s2, d2
		if changed {
			id, fresh := e.in.stateIntern(e.salg.EncodeState(next))
			if fresh {
				e.in.decoded[id] = next
			}
			e.scrStates[q-1] = id
		}
	} else {
		st, s2, d2 := e.alg.Step(q, e.n, e.in.StateString(stateID), mptr, d)
		sends, decs = s2, d2
		e.scrStates[q-1] = e.in.State(st)
	}
	e.insertMsgs(sends)
	for _, dd := range decs {
		if dd.Instance >= 1 && dd.Instance <= len(e.scrDecided) {
			e.scrDecided[dd.Instance-1] |= 1 << uint(dd.Value&1)
		}
		if int32(dd.Instance) > e.scrResponded[q-1] {
			e.scrResponded[q-1] = int32(dd.Instance)
		}
	}
	ed := treeEdge{vertex: vi, kind: edgeLambda, msg: noMsg}
	if mid != noMsg {
		ed.kind = edgeMsg
		ed.msg = mid
	}
	e.attach(ni, ed)
}

// attach interns the scratch configuration, finds or creates the child node,
// and appends the edge to ni.
func (e *engine) attach(ni int32, ed treeEdge) {
	cfgID, _ := e.in.Config(e.scrStates, e.scrBuffer, e.scrDecided, e.scrInvoked, e.scrResponded)
	key := nodeKey(cfgID, ed.vertex)
	ci, ok := e.nodeIdx[key]
	if !ok {
		ci = int32(len(e.nodes))
		e.nodes = append(e.nodes, treeNode{cfgID: cfgID, last: ed.vertex})
		e.nodeIdx[key] = ci
		e.queue = append(e.queue, ci)
	}
	ed.child = ci
	e.nodes[ni].edges = append(e.nodes[ni].edges, ed)
}

// enumerate appends the nodes created since firstNew to the deterministic
// enumeration: by last DAG vertex (the paper's m-based order), then by
// canonical configuration encoding. Growth never reorders earlier nodes —
// every new node's last vertex exceeds every old node's — so enumeration ids
// are stable across extensions, and the prefix-m tree's order is exactly
// byOrder truncated at last < m.
func (e *engine) enumerate(firstNew int) {
	if firstNew >= len(e.nodes) {
		return
	}
	fresh := make([]int32, 0, len(e.nodes)-firstNew)
	for i := firstNew; i < len(e.nodes); i++ {
		nd := &e.nodes[i]
		e.encBuf = e.in.encodeConfig(e.in.ConfigValue(nd.cfgID), e.encBuf[:0])
		nd.enc = string(e.encBuf)
		fresh = append(fresh, int32(i))
	}
	sort.Slice(fresh, func(i, j int) bool {
		a, b := &e.nodes[fresh[i]], &e.nodes[fresh[j]]
		if a.last != b.last {
			return a.last < b.last
		}
		return a.enc < b.enc
	})
	for _, idx := range fresh {
		e.nodes[idx].order = int32(len(e.byOrder))
		e.byOrder = append(e.byOrder, idx)
	}
}

// viewLen returns the number of tree nodes in the prefix-m view, i.e. the
// byOrder prefix with last < m (the root's last is -1, so it is always
// included).
func (e *engine) viewLen(m int) int {
	return sort.Search(len(e.byOrder), func(i int) bool {
		return int(e.nodes[e.byOrder[i]].last) >= m
	})
}

// computeReach fills the engine's reach slab for the prefix-m view:
// reach[ni*L+k] has bit0/bit1 set if some view-descendant-or-self of node ni
// returns 0/1 to proposeEC_{k+1}, and invalidBit if a single configuration
// returned both (the ⊥ tag). Nodes are processed in reverse enumeration
// order, which is reverse-topological: every edge strictly increases the last
// vertex, hence the enumeration position.
func (e *engine) computeReach(m, k int) {
	L := e.L
	need := len(e.nodes) * L
	if cap(e.reachBuf) < need {
		e.reachBuf = make([]uint8, need)
	}
	e.reachBuf = e.reachBuf[:need]
	for oi := k - 1; oi >= 0; oi-- {
		ni := e.byOrder[oi]
		nd := &e.nodes[ni]
		cfg := e.in.ConfigValue(nd.cfgID)
		r := e.reachBuf[int(ni)*L : int(ni)*L+L]
		for kk := 0; kk < L; kk++ {
			d := cfg.decided[kk] & 3
			if d == 3 {
				d |= invalidBit
			}
			r[kk] = d
		}
		for _, ed := range nd.edges {
			if int(ed.vertex) >= m {
				continue
			}
			cr := e.reachBuf[int(ed.child)*L : int(ed.child)*L+L]
			for kk := 0; kk < L; kk++ {
				r[kk] |= cr[kk]
			}
		}
	}
}

const invalidBit = 4

// ---------------------------------------------------------------------------
// Explorer: the public face of one tree view
// ---------------------------------------------------------------------------

// Explorer builds and tags the simulation tree induced by a DAG and an
// algorithm, as a view over the interned engine. fixedInputs non-nil switches
// to the classical simulation-forest mode: process p's proposeEC_1 value is
// fixedInputs[p-1] and no input branching occurs (Appendix B); nil means EC
// mode with branching inputs (§4).
type Explorer struct {
	eng *engine
	m   int // DAG prefix length of this view
	k   int // number of tree nodes in the view
}

// NewExplorer prepares a one-shot exploration of the full DAG. maxNodes caps
// the node count (the paper's limit tree is infinite, so any finite
// exploration needs a cap); 0
// means 200000. For repeated extractions over a growing DAG, use TreeCache,
// which shares the engine across views.
func NewExplorer(alg Algorithm, n int, dag *DAG, fixedInputs []int, maxNodes int) *Explorer {
	ex := &Explorer{eng: newEngine(alg, n, fixedInputs, maxNodes)}
	ex.eng.dag = dag
	ex.m = dag.Len()
	return ex
}

// Build explores every schedule compatible with paths in the DAG, then
// computes the k-tags. It returns an error if the node cap is exceeded.
func (ex *Explorer) Build() error {
	dag := ex.eng.dag
	if err := ex.eng.extendTo(dag, ex.m); err != nil {
		return err
	}
	ex.k = ex.eng.viewLen(ex.m)
	ex.eng.computeReach(ex.m, ex.k)
	return nil
}

// Root returns the root node (for valency queries in the classical variant).
func (ex *Explorer) Root() NodeID { return 0 }

// Len returns the number of distinct tree nodes in this view.
func (ex *Explorer) Len() int { return ex.k }

// Truncated reports whether the exploration hit the node cap.
func (ex *Explorer) Truncated() bool { return ex.eng.truncated }

// enabled reports whether nd is k-enabled: k = 1 or some response to
// proposeEC_{k-1} appears in nd's schedule.
func (ex *Explorer) enabled(nd NodeID, k int) bool {
	return k == 1 || ex.eng.in.ConfigValue(ex.eng.nodes[nd].cfgID).decided[k-2] != 0
}

// KTag returns the k-tag of nd: a subset of {0, 1, ⊥} encoded as a bitmask
// (bit0 = 0-tag, bit1 = 1-tag, invalidBit = ⊥). Empty when not k-enabled.
func (ex *Explorer) KTag(nd NodeID, k int) uint8 {
	if !ex.enabled(nd, k) {
		return 0
	}
	return ex.eng.reachBuf[int(nd)*ex.eng.L+k-1]
}

// Valent reports whether nd is (k, x)-valent: its k-tag is exactly {x}.
func (ex *Explorer) Valent(nd NodeID, k, x int) bool {
	return ex.KTag(nd, k) == 1<<uint(x&1)
}

// Bivalent reports whether nd is k-bivalent: its k-tag contains {0, 1}.
func (ex *Explorer) Bivalent(nd NodeID, k int) bool {
	return ex.KTag(nd, k)&3 == 3
}

// FirstBivalent locates the first k-bivalent node in the deterministic node
// order, scanning instances in increasing order; ok=false if none exists in
// this finite prefix.
func (ex *Explorer) FirstBivalent() (nd NodeID, k int, ok bool) {
	for oi := 0; oi < ex.k; oi++ {
		ni := ex.eng.byOrder[oi]
		for kk := 1; kk <= ex.eng.L; kk++ {
			if ex.Bivalent(NodeID(ni), kk) {
				return NodeID(ni), kk, true
			}
		}
	}
	return 0, 0, false
}

// Subtree returns the nodes of this view reachable from nd (including nd),
// in deterministic enumeration order.
func (ex *Explorer) Subtree(nd NodeID) []NodeID {
	e := ex.eng
	if cap(e.visited) < len(e.nodes) {
		e.visited = make([]bool, len(e.nodes))
	}
	e.visited = e.visited[:len(e.nodes)]
	for i := range e.visited {
		e.visited[i] = false
	}
	e.subBuf = e.subBuf[:0]
	var collect func(ni int32)
	collect = func(ni int32) {
		if e.visited[ni] {
			return
		}
		e.visited[ni] = true
		e.subBuf = append(e.subBuf, ni)
		for _, ed := range e.nodes[ni].edges {
			if int(ed.vertex) < ex.m {
				collect(ed.child)
			}
		}
	}
	collect(int32(nd))
	out := make([]NodeID, len(e.subBuf))
	for i, ni := range e.subBuf {
		out[i] = NodeID(ni)
	}
	sort.Slice(out, func(i, j int) bool {
		return e.nodes[out[i]].order < e.nodes[out[j]].order
	})
	return out
}

// ---------------------------------------------------------------------------
// TreeCache: incremental views over a growing DAG
// ---------------------------------------------------------------------------

// TreeCache reuses one interned engine across the growing DAG prefixes the
// reduction's round structure produces (§4's ever-growing G and the lagged
// per-process views of Figure 6). View(dag, m) incorporates any new DAG
// vertices — extending frontiers only, never revisiting settled prefixes —
// and returns the prefix-m view; a DAG that does not extend the previous one
// resets the tree (the interner survives). Views from one cache share scratch
// state: use the returned Explorer before requesting the next view.
type TreeCache struct {
	eng *engine
}

// NewTreeCache prepares an incremental exploration cache. Arguments match
// NewExplorer minus the DAG, which View supplies per round.
func NewTreeCache(alg Algorithm, n int, fixedInputs []int, maxNodes int) *TreeCache {
	return &TreeCache{eng: newEngine(alg, n, fixedInputs, maxNodes)}
}

// View returns the simulation-tree view over the first m vertices of dag,
// reusing all exploration done for earlier prefixes.
func (c *TreeCache) View(dag *DAG, m int) (*Explorer, error) {
	if m > dag.Len() {
		m = dag.Len()
	}
	// Grow the shared tree to the largest prefix seen, so later lagged views
	// of the same round are pure lookups.
	target := m
	if c.eng.dagLen > target && c.eng.extendsPrior(dag) {
		target = c.eng.dagLen
	}
	if err := c.eng.extendTo(dag, target); err != nil {
		return nil, err
	}
	ex := &Explorer{eng: c.eng, m: m, k: c.eng.viewLen(m)}
	c.eng.computeReach(m, ex.k)
	return ex, nil
}
