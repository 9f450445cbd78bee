package bench

import (
	"fmt"

	"repro/internal/ec"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E2AnyEnvironment checks Lemma 2 across environments: Algorithm 4
// implements EC with Ω regardless of how many processes crash — including
// with only a correct minority (where strong consensus is impossible without
// Σ). Reported: whether the EC spec held and the measured agreement
// instance k relative to Ω's stabilization.
func E2AnyEnvironment(opts Options) Table { return e2Spec(opts).run() }

// e2Spec decomposes E2 into one cell per (environment sample, tauOmega)
// pair. The sampled failure patterns are built once here and shared
// read-only by the cells.
func e2Spec(opts Options) spec {
	n := 5
	instances := 8
	if opts.Quick {
		instances = 4
	}
	s := spec{shell: Table{
		ID:     "E2",
		Title:  "Algorithm 4 (EC from Ω) across environments",
		Claim:  "EC is implementable from Ω in ANY environment (Lemma 2)",
		Header: []string{"environment", "pattern", "tauOmega", "EC ok", "agreement k", "instances"},
		Notes: []string{
			fmt.Sprintf("n=%d, driven EC (each process proposes v/<p>/<l>), %d instances required", n, instances),
			"pre-stabilization Ω behavior: every process trusts itself (maximal divergence)",
		},
	}}
	for _, env := range []model.Environment{model.EnvMajority(), model.EnvAny(), model.EnvMinorityCorrect()} {
		for _, fp := range env.Samples(n) {
			for _, tauOmega := range []model.Time{0, 800} {
				s.cells = append(s.cells, func() cellOut {
					det := fd.NewOmegaEventual(fp, fp.MinCorrect(), tauOmega)
					rec := trace.NewRecorder(n)
					driver := func(p model.ProcID, inst int) (string, bool) {
						return fmt.Sprintf("v/%v/%d", p, inst), true
					}
					k := sim.New(fp, det, ec.DrivenFactory(driver), sim.Options{Seed: opts.seed()})
					k.SetObserver(rec)
					k.RunUntil(60000, func(k *sim.Kernel) bool {
						return k.Now() > tauOmega+500 && rec.AllDecided(fp.Correct(), instances)
					})
					rep := trace.CheckEC(rec, fp.Correct(), instances)
					return cellOut{rows: [][]string{{
						env.Name,
						fp.String(),
						fmt.Sprint(tauOmega),
						boolCell(rep.OK()),
						fmt.Sprint(rep.AgreementK),
						fmt.Sprint(rep.MaxInstance),
					}}, steps: k.Steps()}
				})
			}
		}
	}
	return s
}
