package bench

import (
	"fmt"

	"repro/internal/ec"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
)

// e3Spec decomposes E3 into one cell per transformation stack.
//
// E3 makes Theorem 1 executable: Algorithm 1 turns EC into ETOB,
// Algorithm 2 turns ETOB into EC, and the two compose back to EC. Each stack
// is property-checked and its overhead (link-level messages) reported.
func e3Spec(opts Options) spec {
	n := 3
	s := spec{shell: Table{
		ID:     "E3",
		Title:  "EC <-> ETOB transformations (Algorithms 1 and 2)",
		Claim:  "EC and ETOB are equivalent in any environment (Theorem 1)",
		Header: []string{"stack", "spec checked", "ok", "tau / k", "messages"},
		Notes: []string{
			fmt.Sprintf("n=%d, Ω stabilizes at t=600 after self-trust divergence", n),
			"tau: measured ETOB stabilization time; k: measured EC agreement instance",
		},
	}}
	driver := func(p model.ProcID, inst int) (string, bool) {
		return fmt.Sprintf("v/%v/%d", p, inst), true
	}

	// Stack 1: Algorithm 1 over Algorithm 4 — check the ETOB spec.
	s.cells = append(s.cells, func() cellOut {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaEventual(fp, 1, 600)
		rec := trace.NewRecorder(n)
		factory := transform.ECToETOBFactory(func(p model.ProcID, nn int) transform.ECProtocol {
			return ec.New(p, nn)
		})
		k := sim.New(fp, det, factory, sim.Options{Seed: opts.seed()})
		k.SetObserver(rec)
		var ids []string
		for i := 0; i < 3; i++ {
			for _, p := range model.Procs(n) {
				id := fmt.Sprintf("p%d#%d", p, i)
				ids = append(ids, id)
				k.ScheduleInput(p, model.Time(30+40*i)+model.Time(p), model.BroadcastInput{ID: id})
			}
		}
		k.RunUntil(30000, func(k *sim.Kernel) bool {
			return k.Now() > 800 && rec.AllDelivered(fp.Correct(), ids)
		})
		settle := k.Now()
		k.Run(settle + 1000)
		rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{InputCutoff: 500, SettleTime: settle})
		return cellOut{rows: [][]string{{
			"Alg1(EC->ETOB) over Alg4", "ETOB", boolCell(rep.OK()),
			fmt.Sprintf("tau=%d", rep.Tau), fmt.Sprint(rec.Sends()),
		}}, steps: k.Steps()}
	})

	// Stack 2: Algorithm 2 over Algorithm 5 — check the EC spec.
	s.cells = append(s.cells, func() cellOut {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaEventual(fp, 1, 600)
		rec := trace.NewRecorder(n)
		factory := transform.ETOBToECFactory(func(p model.ProcID, nn int) transform.ETOBProtocol {
			return etob.New(p, nn)
		}, transform.Driver(driver))
		k := sim.New(fp, det, factory, sim.Options{Seed: opts.seed() + 1})
		k.SetObserver(rec)
		k.RunUntil(30000, func(k *sim.Kernel) bool {
			return k.Now() > 1500 && rec.AllDecided(fp.Correct(), 5)
		})
		rep := trace.CheckEC(rec, fp.Correct(), 5)
		return cellOut{rows: [][]string{{
			"Alg2(ETOB->EC) over Alg5", "EC", boolCell(rep.OK()),
			fmt.Sprintf("k=%d", rep.AgreementK), fmt.Sprint(rec.Sends()),
		}}, steps: k.Steps()}
	})

	// Stack 3: the roundtrip Alg2 ∘ Alg1 over Alg4 — check the EC spec.
	s.cells = append(s.cells, func() cellOut {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaEventual(fp, 1, 600)
		rec := trace.NewRecorder(n)
		factory := transform.ETOBToECFactory(func(p model.ProcID, nn int) transform.ETOBProtocol {
			return transform.NewECToETOB(p, nn, ec.New(p, nn))
		}, transform.Driver(driver))
		k := sim.New(fp, det, factory, sim.Options{Seed: opts.seed() + 2})
		k.SetObserver(rec)
		k.RunUntil(60000, func(k *sim.Kernel) bool {
			return k.Now() > 1500 && rec.AllDecided(fp.Correct(), 3)
		})
		rep := trace.CheckEC(rec, fp.Correct(), 3)
		return cellOut{rows: [][]string{{
			"Alg2 over Alg1 over Alg4", "EC", boolCell(rep.OK()),
			fmt.Sprintf("k=%d", rep.AgreementK), fmt.Sprint(rec.Sends()),
		}}, steps: k.Steps()}
	})
	return s
}
