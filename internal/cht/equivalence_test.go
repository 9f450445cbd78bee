package cht

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
)

// stringPathAlg hides an algorithm's StructuredAlgorithm fast path, forcing
// the engine down the reference string Step/decode/encode route.
type stringPathAlg struct{ inner Algorithm }

func (a stringPathAlg) Name() string     { return a.inner.Name() }
func (a stringPathAlg) MaxInstance() int { return a.inner.MaxInstance() }
func (a stringPathAlg) InitState(p model.ProcID, n int) string {
	return a.inner.InitState(p, n)
}
func (a stringPathAlg) Invoke(p model.ProcID, n int, state string, instance, value int) (string, []SimMsg) {
	return a.inner.Invoke(p, n, state, instance, value)
}
func (a stringPathAlg) Step(p model.ProcID, n int, state string, m *SimMsg, d any) (string, []SimMsg, []Decided) {
	return a.inner.Step(p, n, state, m, d)
}

// e4Scenario mirrors one row block of bench experiment E4.
type e4Scenario struct {
	name      string
	classical bool
	L         int
	fp        func() *model.FailurePattern
	det       func(fp *model.FailurePattern) fd.Detector
}

func e4Scenarios() []e4Scenario {
	crash := func() *model.FailurePattern {
		fp := model.NewFailurePattern(2)
		fp.Crash(1, 55)
		return fp
	}
	free := func() *model.FailurePattern { return model.NewFailurePattern(2) }
	return []e4Scenario{
		{"classical/stable", true, 1, free,
			func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaStable(fp, 1) }},
		{"classical/eventual", true, 1, free,
			func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaEventual(fp, 2, 35) }},
		{"ec/eventual", false, 2, free,
			func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaEventual(fp, 2, 35) }},
		{"ec/eventual-crash", false, 2, crash,
			func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaEventual(fp, 2, 35) }},
	}
}

// TestStructuredMatchesStringPath pins the StructuredAlgorithm fast path to
// the reference string path: the full emulation — leader estimate sequences,
// extraction rules, and tree sizes — must be identical across all E4
// scenarios and a spread of DAG seeds.
func TestStructuredMatchesStringPath(t *testing.T) {
	for _, sc := range e4Scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				fp := sc.fp()
				run := func(alg Algorithm) []EmulationRound {
					rs, err := EmulateOmega(alg, fp, sc.det(fp), EmulateOptions{
						Rounds:      3,
						Classical:   sc.classical,
						BaseSamples: 2,
						Build:       BuildOptions{Seed: seed},
						ViewLag:     1,
					})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					return rs
				}
				fast := run(NewEC4(sc.L))
				ref := run(stringPathAlg{NewEC4(sc.L)})
				if !reflect.DeepEqual(fast, ref) {
					t.Fatalf("seed %d: structured path diverged\nfast: %+v\nref:  %+v", seed, fast, ref)
				}
			}
		})
	}
}

// TestIncrementalMatchesFreshExtraction pins the incremental tree growth to
// one-shot exploration: for every prefix of a growing DAG, the TreeCache view
// must yield the same first bivalent vertex, the same decision gadget, and
// the same extraction as a fresh Explorer over DAG.Prefix.
func TestIncrementalMatchesFreshExtraction(t *testing.T) {
	for _, sc := range e4Scenarios() {
		if sc.classical {
			continue // the EC view API; classical is covered by TestIncrementalMatchesFreshEmulation
		}
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				fp := sc.fp()
				det := sc.det(fp)
				full := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 4, Seed: seed})
				cache := NewTreeCache(NewEC4(sc.L), fp.N(), nil, 0)
				for m := 1; m <= full.Len(); m++ {
					inc, err := cache.View(full, m)
					if err != nil {
						t.Fatal(err)
					}
					got := extractECView(inc)
					want, err := ExtractEC(NewEC4(sc.L), fp.N(), full.Prefix(m), 0)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d prefix %d: incremental %+v != fresh %+v", seed, m, got, want)
					}
					// Gadget identity, not just the extraction summary.
					if p1, k1, ok1 := inc.FirstBivalent(); ok1 {
						fresh := NewExplorer(NewEC4(sc.L), fp.N(), full.Prefix(m), nil, 0)
						if err := fresh.Build(); err != nil {
							t.Fatal(err)
						}
						p2, k2, ok2 := fresh.FirstBivalent()
						if !ok2 || k1 != k2 || inc.eng.nodes[p1].order != fresh.eng.nodes[p2].order {
							t.Fatalf("seed %d prefix %d: bivalent pivot mismatch", seed, m)
						}
						g1, ok1 := inc.FindGadget(p1, k1)
						g2, ok2 := fresh.FindGadget(p2, k2)
						if ok1 != ok2 || g1 != g2 {
							t.Fatalf("seed %d prefix %d: gadget mismatch: %v vs %v", seed, m, g1, g2)
						}
					}
				}
			}
		})
	}
}

// TestIncrementalMatchesFreshEmulation re-implements EmulateOmega's round
// loop with fresh one-shot extractions (the pre-overhaul behavior) and checks
// the incremental emulation reproduces it exactly, for all E4 scenarios and
// a spread of seeds — the golden equivalence for the engine as a whole.
func TestIncrementalMatchesFreshEmulation(t *testing.T) {
	const rounds = 3
	for _, sc := range e4Scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				fp := sc.fp()
				det := sc.det(fp)
				alg := NewEC4(sc.L)
				incremental, err := EmulateOmega(alg, fp, det, EmulateOptions{
					Rounds: rounds, Classical: sc.classical, BaseSamples: 2,
					Build: BuildOptions{Seed: seed}, ViewLag: 1,
				})
				if err != nil {
					t.Fatal(err)
				}

				// Reference loop: fresh DAG, fresh trees, every round.
				estimates := map[model.ProcID]model.ProcID{}
				for _, p := range model.Procs(fp.N()) {
					estimates[p] = p
				}
				for r := 1; r <= rounds; r++ {
					full := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 2 + r - 1, Seed: seed})
					round := incremental[r-1]
					wantNodes := 0
					for _, p := range fp.Correct() {
						cut := full.Len() - int(p-1)
						if cut < 1 {
							cut = 1
						}
						view := full.Prefix(cut)
						var ext Extraction
						var err error
						if sc.classical {
							ext, err = ExtractClassical(alg, fp.N(), view, 0)
						} else {
							ext, err = ExtractEC(alg, fp.N(), view, 0)
						}
						if err != nil {
							t.Fatal(err)
						}
						wantNodes += ext.Nodes
						wantHow := "carry-over"
						if ext.Found {
							estimates[p] = ext.Leader
							wantHow = ext.How
						}
						if round.Outputs[p] != estimates[p] || round.Hows[p] != wantHow {
							t.Fatalf("seed %d round %d %v: incremental (%v, %s) != fresh (%v, %s)",
								seed, r, p, round.Outputs[p], round.Hows[p], estimates[p], wantHow)
						}
					}
					if round.Nodes != wantNodes {
						t.Fatalf("seed %d round %d: node count %d != fresh %d", seed, r, round.Nodes, wantNodes)
					}
				}
			}
		})
	}
}

// TestParsePromoteMatchesSscanf pins the fast payload parser to the
// reference path's fmt.Sscanf("%d:%d") acceptance, including payloads EC4
// never generates (trailing content, signs, leading spaces): the two Step
// paths must agree on every input, not just well-formed ones.
func TestParsePromoteMatchesSscanf(t *testing.T) {
	payloads := []string{
		"1:0", "2:1", "-3:+4", " 1: 0", "3:4:5", "3:4x", "12:34extra",
		"", ":", "1:", ":1", "a:1", "1:a", "x", "1", "+:-", " -7 : 8",
	}
	for _, p := range payloads {
		var wi, wv int
		n, err := fmt.Sscanf(p, "%d:%d", &wi, &wv)
		want := n == 2 && err == nil
		gi, gv, got := parsePromote(p)
		if got != want {
			t.Errorf("payload %q: parsePromote ok=%v, Sscanf ok=%v", p, got, want)
			continue
		}
		if got && (gi != wi || gv != wv) {
			t.Errorf("payload %q: parsePromote (%d, %d) != Sscanf (%d, %d)", p, gi, gv, wi, wv)
		}
	}
}

// TestTreeCacheResetsOnForeignDAG: handing a cache a same-shape DAG built
// from a different seed (same vertex (P, K, Time) sequence, different gossip
// edges) must reset the tree, not silently mix the two DAGs' successor
// structures — the extraction must match a fresh engine on the new DAG.
func TestTreeCacheResetsOnForeignDAG(t *testing.T) {
	fp := model.NewFailurePattern(2)
	det := fd.NewOmegaEventual(fp, 2, 35)
	g1 := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 4, Seed: 1})
	g2 := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 4, Seed: 31})

	cache := NewTreeCache(NewEC4(2), fp.N(), nil, 0)
	if _, err := cache.View(g1, g1.Len()); err != nil {
		t.Fatal(err)
	}
	v2, err := cache.View(g2, g2.Len())
	if err != nil {
		t.Fatal(err)
	}
	got := extractECView(v2)
	want, err := ExtractEC(NewEC4(2), fp.N(), g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cache reused stale tree across foreign DAGs: %+v != %+v", got, want)
	}
}

// TestStructuredStateRoundtrip pins DecodeState/EncodeState as inverses on
// states the string path produces, including multi-entry receive sets.
func TestStructuredStateRoundtrip(t *testing.T) {
	a := NewEC4(2)
	s := a.InitState(1, 3)
	states := []string{s}
	s, _ = a.Invoke(1, 3, s, 1, 1)
	states = append(states, s)
	for _, m := range []SimMsg{
		{From: 2, To: 1, Payload: "1:0"},
		{From: 3, To: 1, Payload: "1:1"},
		{From: 1, To: 1, Payload: "1:1"},
		{From: 2, To: 1, Payload: "2:1"},
	} {
		mm := m
		s, _, _ = a.Step(1, 3, s, &mm, nil)
		states = append(states, s)
	}
	s2, _, _ := a.Step(1, 3, s, nil, fd.OmegaValue(2))
	states = append(states, s2)
	for _, st := range states {
		if got := a.EncodeState(a.DecodeState(3, st)); got != st {
			t.Fatalf("roundtrip broke: %q -> %q", st, got)
		}
	}
}
