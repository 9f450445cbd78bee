package bench

import (
	"fmt"

	"repro/internal/cht"
	"repro/internal/fd"
	"repro/internal/model"
)

// e4Spec decomposes E4 into one cell per reduction scenario; each cell
// contributes one row per emulation round. E4 runs no kernel (the CHT
// reduction samples histories directly), so its step counts are zero.
//
// E4 runs the CHT reduction (Lemma 1 / Theorem 2, necessity):
// emulate Ω from the algorithm A = Algorithm 4 and the detector D = Ω, both
// in the classical one-shot form (Appendix B) and in the paper's eventual-
// consensus extension (§4). Reported per round: each correct process's Ω
// estimate — the claim is that estimates stabilize on the same CORRECT
// process.
func e4Spec(opts Options) spec {
	rounds := 4
	if opts.Quick {
		rounds = 2
	}
	s := spec{shell: Table{
		ID:     "E4",
		Title:  "CHT extraction: emulating Omega from an EC implementation",
		Claim:  "Omega is weaker than any D implementing EC (Lemma 1): the reduction's leader estimates stabilize on a correct process",
		Header: []string{"variant", "detector", "round", "samples/proc", "outputs", "agreed", "correct", "tree nodes"},
		Notes: []string{
			"n=2; A = Algorithm 4; estimates carry over when the finite prefix has no gadget yet",
			"outputs column: p -> estimate for each correct process",
		},
	}}
	type scenario struct {
		variant   string
		classical bool
		alg       cht.Algorithm
		fp        *model.FailurePattern
		det       fd.Detector
		detName   string
	}
	fpFree := model.NewFailurePattern(2)
	fpCrash := model.NewFailurePattern(2)
	fpCrash.Crash(1, 55)
	scenarios := []scenario{
		{"classical (App. B)", true, cht.NewEC4(1), fpFree, fd.NewOmegaStable(fpFree, 1), "stable Omega(p1)"},
		{"classical (App. B)", true, cht.NewEC4(1), fpFree, fd.NewOmegaEventual(fpFree, 2, 35), "eventual Omega(p2)@35"},
		{"EC (paper §4)", false, cht.NewEC4(2), fpFree, fd.NewOmegaEventual(fpFree, 2, 35), "eventual Omega(p2)@35"},
		{"EC (paper §4)", false, cht.NewEC4(2), fpCrash, fd.NewOmegaEventual(fpCrash, 2, 35), "eventual Omega(p2)@35, p1 crashes@55"},
	}
	for i, sc := range scenarios {
		s.cells = append(s.cells, func() cellOut {
			rs, err := cht.EmulateOmega(sc.alg, sc.fp, sc.det, cht.EmulateOptions{
				Rounds:      rounds,
				Classical:   sc.classical,
				BaseSamples: 2,
				Build:       cht.BuildOptions{Seed: opts.seed() + int64(i)},
				ViewLag:     1,
			})
			if err != nil {
				return cellOut{rows: [][]string{{
					sc.variant, sc.detName, "-", "-", "error: " + err.Error(), "-", "-", "-",
				}}}
			}
			var rows [][]string
			for _, r := range rs {
				leader, agreed := r.Agreed(sc.fp.Correct())
				correct := agreed && sc.fp.IsCorrect(leader)
				outs := ""
				for _, p := range sc.fp.Correct() {
					outs += fmt.Sprintf("%v->%v ", p, r.Outputs[p])
				}
				rows = append(rows, []string{
					sc.variant, sc.detName,
					fmt.Sprint(r.Round), fmt.Sprint(r.Samples),
					outs, boolCell(agreed), boolCell(correct), fmt.Sprint(r.Nodes),
				})
			}
			return cellOut{rows: rows}
		})
	}
	return s
}
