package cht

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
)

// Extraction is the outcome of one extraction attempt from one DAG view.
type Extraction struct {
	// Leader is the emulated Ω output; valid when Found.
	Leader model.ProcID
	Found  bool
	// How identifies the rule that produced the leader: a gadget kind,
	// "univalent-critical", or "" when not Found.
	How string
	// Instance is the consensus instance whose bivalence drove the gadget
	// (EC variant), or 0.
	Instance int
	// CriticalIndex is the located critical index (classical variant), or 0.
	CriticalIndex int
	// Nodes is the total number of simulation-tree nodes explored.
	Nodes int
}

// extractECView runs the §4 extraction over one built view: locate the first
// k-bivalent vertex (Algorithm 3's target) and return the deciding process of
// the smallest decision gadget below it.
func extractECView(ex *Explorer) Extraction {
	res := Extraction{Nodes: ex.Len()}
	pivot, k, ok := ex.FirstBivalent()
	if !ok {
		return res
	}
	g, ok := ex.FindGadget(pivot, k)
	if !ok {
		return res
	}
	res.Found = true
	res.Leader = g.Deciding
	res.How = string(g.Kind)
	res.Instance = k
	return res
}

// ExtractEC runs the paper's §4 extraction against algorithm alg and the DAG
// view: build the single simulation tree with branching inputs, locate the
// first k-bivalent vertex, and return the deciding process of the smallest
// decision gadget below it.
func ExtractEC(alg Algorithm, n int, dag *DAG, maxNodes int) (Extraction, error) {
	ex := NewExplorer(alg, n, dag, nil, maxNodes)
	if err := ex.Build(); err != nil {
		return Extraction{}, err
	}
	return extractECView(ex), nil
}

// extractClassicalViews runs the Appendix-B critical-index argument over the
// n+1 built forest views (view i fixes p_1..p_i proposing 1, the rest 0).
func extractClassicalViews(views []*Explorer, n int) Extraction {
	res := Extraction{}
	tags := make([]uint8, n+1)
	for i, ex := range views {
		tags[i] = ex.KTag(ex.Root(), 1)
		res.Nodes += ex.Len()
	}
	// Smallest critical index i ∈ {1..n}: root(Υ^i) bivalent, or
	// root(Υ^{i-1}) 0-valent and root(Υ^i) 1-valent.
	for i := 1; i <= n; i++ {
		bivalent := tags[i]&3 == 3
		univalent := tags[i-1] == 1 && tags[i] == 2
		if !bivalent && !univalent {
			continue
		}
		res.CriticalIndex = i
		if univalent {
			res.Found = true
			res.Leader = model.ProcID(i)
			res.How = "univalent-critical"
			return res
		}
		if g, ok := views[i].FindGadget(views[i].Root(), 1); ok {
			res.Found = true
			res.Leader = g.Deciding
			res.How = string(g.Kind)
			return res
		}
		return res // bivalent critical but no gadget in this finite prefix
	}
	return res
}

// classicalInputs returns the paper's initial configuration I^i: p_1..p_i
// propose 1, the rest 0.
func classicalInputs(n, i int) []int {
	inputs := make([]int, n)
	for j := 1; j <= i; j++ {
		inputs[j-1] = 1
	}
	return inputs
}

// ExtractClassical runs the Appendix-B extraction for a one-shot consensus
// algorithm (alg.MaxInstance() == 1): build the simulation forest over the
// initial configurations I^0..I^n, find the smallest critical index, and
// output either p_i (univalent critical, Lemma 7) or the deciding process of
// a decision gadget in Υ^i (bivalent critical, Lemmas 8–9).
func ExtractClassical(alg Algorithm, n int, dag *DAG, maxNodes int) (Extraction, error) {
	if alg.MaxInstance() != 1 {
		return Extraction{}, fmt.Errorf("cht: classical extraction needs a one-shot algorithm, got L=%d", alg.MaxInstance())
	}
	views := make([]*Explorer, n+1)
	for i := 0; i <= n; i++ {
		ex := NewExplorer(alg, n, dag, classicalInputs(n, i), maxNodes)
		if err := ex.Build(); err != nil {
			return Extraction{}, err
		}
		views[i] = ex
	}
	// KTag reads the engine's reach slab, which is per-engine here (one
	// engine per forest tree), so the views stay valid side by side.
	return extractClassicalViews(views, n), nil
}

// EmulationRound records the Ω estimates of every correct process after one
// growth round of the reduction.
type EmulationRound struct {
	Round   int
	Samples int // DAG samples per process in this round
	Outputs map[model.ProcID]model.ProcID
	Hows    map[model.ProcID]string
	Nodes   int
}

// Agreed reports whether all correct processes output the same leader, and
// that leader.
func (r EmulationRound) Agreed(correct []model.ProcID) (model.ProcID, bool) {
	var leader model.ProcID
	for i, p := range correct {
		out := r.Outputs[p]
		if i == 0 {
			leader = out
			continue
		}
		if out != leader {
			return model.NoProc, false
		}
	}
	return leader, true
}

// EmulateOptions configure EmulateOmega.
type EmulateOptions struct {
	// Rounds is how many growth rounds to run.
	Rounds int
	// Classical selects the Appendix-B extraction (one-shot consensus);
	// false selects the §4 EC extraction.
	Classical bool
	// MaxNodes caps each tree exploration.
	MaxNodes int
	// Build configures the DAG growth (SamplesPerProcess is overridden per
	// round: round r uses r+BaseSamples−1 samples).
	Build BuildOptions
	// BaseSamples is the sample count of round 1 (default 2).
	BaseSamples int
	// ViewLag staggers each process's view of the shared DAG by (p−1)·ViewLag
	// vertices, modeling the gossip delay of the communication task
	// (default 1).
	ViewLag int
}

// EmulateOmega runs the full reduction T_{D→Ω} round by round: in round r the
// communication task has produced a larger DAG; every correct process applies
// the extraction to its (lagged) view and updates its Ω estimate, keeping the
// previous estimate (initially itself) when the finite prefix does not yet
// contain a gadget — exactly the reduction's behavior on a finite prefix of
// the limit tree.
//
// Across rounds the DAG grows monotonically (same build seed, more samples),
// and every per-process view is a prefix of it, so the simulation trees are
// built incrementally: one TreeCache per forest tree carries all nodes, edges
// and interned configurations from round to round and only extends frontiers
// reachable from the new DAG vertices.
func EmulateOmega(alg Algorithm, fp *model.FailurePattern, det fd.Detector, opts EmulateOptions) ([]EmulationRound, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 3
	}
	if opts.BaseSamples <= 0 {
		opts.BaseSamples = 2
	}
	if opts.ViewLag < 0 {
		opts.ViewLag = 0
	}
	n := fp.N()

	var caches []*TreeCache
	if opts.Classical {
		if alg.MaxInstance() != 1 {
			return nil, fmt.Errorf("cht: classical extraction needs a one-shot algorithm, got L=%d", alg.MaxInstance())
		}
		caches = make([]*TreeCache, n+1)
		for i := 0; i <= n; i++ {
			caches[i] = NewTreeCache(alg, n, classicalInputs(n, i), opts.MaxNodes)
		}
	} else {
		caches = []*TreeCache{NewTreeCache(alg, n, nil, opts.MaxNodes)}
	}

	estimates := make(map[model.ProcID]model.ProcID, n)
	for _, p := range model.Procs(n) {
		estimates[p] = p // Ω-output_p initially p (Figure 6)
	}
	var rounds []EmulationRound
	views := make([]*Explorer, len(caches))
	for r := 1; r <= opts.Rounds; r++ {
		b := opts.Build
		b.SamplesPerProcess = opts.BaseSamples + r - 1
		full := BuildDAG(fp, det, b)
		round := EmulationRound{
			Round:   r,
			Samples: b.SamplesPerProcess,
			Outputs: make(map[model.ProcID]model.ProcID, n),
			Hows:    make(map[model.ProcID]string, n),
		}
		for _, p := range fp.Correct() {
			cut := full.Len() - int(p-1)*opts.ViewLag
			if cut < 1 {
				cut = 1
			}
			var ext Extraction
			if opts.Classical {
				for i, c := range caches {
					ex, err := c.View(full, cut)
					if err != nil {
						return rounds, err
					}
					views[i] = ex
				}
				ext = extractClassicalViews(views, n)
			} else {
				ex, err := caches[0].View(full, cut)
				if err != nil {
					return rounds, err
				}
				ext = extractECView(ex)
			}
			round.Nodes += ext.Nodes
			if ext.Found {
				estimates[p] = ext.Leader
				round.Hows[p] = ext.How
			} else {
				round.Hows[p] = "carry-over"
			}
			round.Outputs[p] = estimates[p]
		}
		rounds = append(rounds, round)
	}
	return rounds, nil
}
