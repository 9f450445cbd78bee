package bench

import (
	"fmt"

	"repro/internal/ec"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/trace"
	"repro/internal/transform"
)

// E6StableOmega checks §5 property 2: whenever Ω outputs the same leader at
// every process from time 0, Algorithm 5 satisfies the STRONG total order
// broadcast specification (measured τ = 0), across seeds and leaders.
func E6StableOmega(opts Options) Table { return e6Spec(opts).run() }

// e6Spec decomposes E6 into one cell per (leader, seed) pair.
func e6Spec(opts Options) spec {
	n := 4
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if opts.Quick {
		seeds = seeds[:2]
	}
	s := spec{shell: Table{
		ID:     "E6",
		Title:  "Algorithm 5 under stable Omega is STRONG total order broadcast",
		Claim:  "if Omega outputs the same leader from the start, ETOB implements TOB (paper §5 property 2)",
		Header: []string{"leader", "seed", "delivered", "tau", "strong TOB"},
		Notes:  []string{fmt.Sprintf("n=%d, 12 broadcasts, adversarial random link delays per seed", n)},
	}}
	for _, leader := range []model.ProcID{1, 3} {
		for _, seed := range seeds {
			s.cells = append(s.cells, func() cellOut {
				fp := model.NewFailurePattern(n)
				det := fd.NewOmegaStable(fp, leader)
				rec := trace.NewRecorder(n)
				k := sim.New(fp, det, etob.Factory(), sim.Options{Seed: seed, MinDelay: 5, MaxDelay: 60})
				k.SetObserver(rec)
				var ids []string
				for i := 0; i < 12; i++ {
					p := model.ProcID(i%n + 1)
					id := fmt.Sprintf("m%d", i)
					ids = append(ids, id)
					k.ScheduleInput(p, model.Time(20+17*i), model.BroadcastInput{ID: id})
				}
				k.RunUntil(30000, func(*sim.Kernel) bool { return rec.AllDelivered(fp.Correct(), ids) })
				settle := k.Now()
				k.Run(settle + 500)
				rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: settle})
				return cellOut{rows: [][]string{{
					leader.String(), fmt.Sprint(seed),
					fmt.Sprint(len(rec.FinalSeq(1))),
					fmt.Sprint(rep.Tau), boolCell(rep.StrongTOB()),
				}}, steps: k.Steps()}
			})
		}
	}
	return s
}

// E7CausalOrder checks §5 property 3: TOB-Causal-Order holds at ALL times —
// even during a split-brain window in which half the processes trust one
// leader and half another, replicas diverge (ETOB τ > 0, SMR rebuilds > 0),
// and yet no delivered sequence ever inverts a causal dependency.
func E7CausalOrder(opts Options) Table { return e7Spec(opts).run() }

// e7Spec decomposes E7 into one cell per seed.
func e7Spec(opts Options) spec {
	n := 4
	seeds := []int64{10, 11, 12, 13}
	if opts.Quick {
		seeds = seeds[:2]
	}
	s := spec{shell: Table{
		ID:     "E7",
		Title:  "Causal order during leader disagreement (split brain until t=2000)",
		Claim:  "TOB-Causal-Order holds even while Omega outputs different leaders (paper §5 property 3)",
		Header: []string{"seed", "causal ok", "tau", "diverged (tau>0)", "SMR rebuilds", "converged"},
		Notes: []string{
			"workload: three causal chains plus a cross-chain dependency, broadcast during the split",
			"SMR rebuilds > 0 witnesses real divergence; causal ok must hold regardless",
		},
	}}
	for _, seed := range seeds {
		s.cells = append(s.cells, func() cellOut {
			fp := model.NewFailurePattern(n)
			det := fd.NewOmegaSplit(fp, 2, 1, 1, 2000)
			rec := trace.NewRecorder(n)
			factory := smr.ReplicaFactory(etob.Factory(), smr.LogFactory)
			k := sim.New(fp, det, factory, sim.Options{Seed: seed})
			k.SetObserver(rec)
			// Causal chains via explicit deps. Causally concurrent messages are
			// broadcast near-simultaneously from different processes so the two
			// leader camps observe — and promote — different interleavings.
			type bc struct {
				id, dep string
				p       model.ProcID
				at      model.Time
			}
			workload := []bc{
				{"a1|cmd a1", "", 1, 30}, {"b1|cmd b1", "", 4, 32},
				{"a2|cmd a2", "a1|cmd a1", 3, 150}, {"b2|cmd b2", "b1|cmd b1", 2, 152},
				{"a3|cmd a3", "a2|cmd a2", 1, 270}, {"c1|cmd c1", "a2|cmd a2", 2, 272},
			}
			var ids []string
			for _, w := range workload {
				in := model.BroadcastInput{ID: w.id}
				if w.dep != "" {
					in.Deps = []string{w.dep}
				}
				ids = append(ids, w.id)
				k.ScheduleInput(w.p, w.at, in)
			}
			k.RunUntil(30000, func(k *sim.Kernel) bool {
				return k.Now() > 2500 && rec.AllDelivered(fp.Correct(), ids)
			})
			settle := k.Now()
			k.Run(settle + 500)
			rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: settle})
			rebuilds := 0
			for _, p := range model.Procs(n) {
				rebuilds += k.Automaton(p).(*smr.Replica).Rebuilds()
			}
			return cellOut{rows: [][]string{{
				fmt.Sprint(seed),
				boolCell(rep.CausalOrder.OK),
				fmt.Sprint(rep.Tau),
				boolCell(rep.Tau > 0),
				fmt.Sprint(rebuilds),
				boolCell(rep.OK()),
			}}, steps: k.Steps()}
		})
	}
	return s
}

// E8EIC checks Appendix A: Algorithm 6 turns EC into eventual irrevocable
// consensus (finitely many revocations: IntegrityK finite), and Algorithm 7
// turns EIC back into EC.
func E8EIC(opts Options) Table { return e8Spec(opts).run() }

// e8Spec decomposes E8 into one cell per transformation direction.
func e8Spec(opts Options) spec {
	n := 3
	s := spec{shell: Table{
		ID:     "E8",
		Title:  "EC <-> EIC transformations (Algorithms 6 and 7, Appendix A)",
		Claim:  "EC and EIC are equivalent; decisions are revoked only finitely often (Theorem 3)",
		Header: []string{"stack", "spec", "ok", "integrity k / agreement k", "revocations"},
		Notes:  []string{fmt.Sprintf("n=%d, Ω self-trust until t=1000 forces early revocable decisions", n)},
	}}
	driver := func(p model.ProcID, inst int) (string, bool) {
		return fmt.Sprintf("v/%v/%d", p, inst), true
	}

	// Algorithm 6 over Algorithm 4 — check EIC.
	s.cells = append(s.cells, func() cellOut {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaEventual(fp, 1, 1000)
		rec := trace.NewRecorder(n)
		factory := transform.ECToEICFactory(func(p model.ProcID, nn int) transform.ECProtocol {
			return ec.New(p, nn)
		}, transform.Driver(driver))
		k := sim.New(fp, det, factory, sim.Options{Seed: opts.seed()})
		k.SetObserver(rec)
		k.RunUntil(30000, func(k *sim.Kernel) bool {
			return k.Now() > 3000 && rec.AllDecided(fp.Correct(), 5)
		})
		rep := trace.CheckEIC(rec, fp.Correct(), 5)
		revocations := 0
		for _, p := range model.Procs(n) {
			seen := map[int]int{}
			for _, d := range rec.Decisions(p) {
				seen[d.Instance]++
				if seen[d.Instance] > 1 {
					revocations++
				}
			}
		}
		return cellOut{rows: [][]string{{
			"Alg6(EC->EIC) over Alg4", "EIC", boolCell(rep.OK()),
			fmt.Sprintf("integrityK=%d", rep.IntegrityK), fmt.Sprint(revocations),
		}}, steps: k.Steps()}
	})

	// Algorithm 7 over Algorithm 6 over Algorithm 4 — check EC.
	s.cells = append(s.cells, func() cellOut {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaEventual(fp, 1, 1000)
		rec := trace.NewRecorder(n)
		factory := transform.EICToECFactory(func(p model.ProcID, nn int) transform.EICProtocol {
			return transform.NewECToEIC(p, nn, ec.New(p, nn))
		}, transform.Driver(driver))
		k := sim.New(fp, det, factory, sim.Options{Seed: opts.seed() + 1})
		k.SetObserver(rec)
		k.RunUntil(30000, func(k *sim.Kernel) bool {
			return k.Now() > 2000 && rec.AllDecided(fp.Correct(), 5)
		})
		rep := trace.CheckEC(rec, fp.Correct(), 5)
		return cellOut{rows: [][]string{{
			"Alg7 over Alg6 over Alg4", "EC", boolCell(rep.OK()),
			fmt.Sprintf("agreementK=%d", rep.AgreementK), "-",
		}}, steps: k.Steps()}
	})
	return s
}
