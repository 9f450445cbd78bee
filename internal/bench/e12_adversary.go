package bench

import (
	"fmt"

	"repro/internal/ec"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/sim/adversary"
	"repro/internal/trace"
	"repro/internal/transform"
)

// e12Net builds the two competing network factories over the same support.
func e12Net(adversarial bool) sim.NetworkFactory {
	if adversarial {
		return func() sim.NetworkModel { return &adversary.AdversarialScheduler{Min: 1, Max: 60} }
	}
	return func() sim.NetworkModel { return sim.NewUniform(1, 60) }
}

// e12Spec decomposes E12 into one cell per (workload, scheduler) pair.
//
// E12 runs the divergence-maximizing scheduler head to
// head against i.i.d. delays drawn over the IDENTICAL support ([1, 60]
// ticks), on the suite's two canonical workloads: the E9-style broadcast
// convergence run (ETOB under a stable leader) and the E3-style
// transformation stack (Algorithm 1 over Algorithm 4 under a late-stabilizing
// Ω, property-checked against the ETOB spec). Both schedulers are admissible
// §2 environments — every message arrives within the menu bound — so
// convergence is always reached; the table measures how much of the
// admissible envelope the greedy adversary actually costs versus i.i.d.
// noise. On seeds 1–20 it costs worst-case decision latency on the broadcast
// workload, but not reliably convergence time (the last note gives the
// counts), so no test pins an adversarial-worse-than-i.i.d. ordering.
func e12Spec(opts Options) spec {
	s := spec{shell: Table{
		ID:     "E12",
		Title:  "Adversarial (divergence-maximizing) scheduler vs i.i.d. delays",
		Claim:  "the scheduler is part of the environment: inside the same delay bounds a greedy adversary raises the broadcast workload's worst-case decision latency above i.i.d. noise, but a protocol-blind one does not reliably delay convergence, while EC still always converges (admissibility)",
		Header: []string{"workload", "scheduler", "converged", "converged at", "worst decision latency", "tau"},
		Notes: []string{
			"both schedulers draw delays in [1, 60] ticks; the adversary starves a rotating victim at the bound and spreads other arrivals greedily (adversary.AdversarialScheduler)",
			"broadcast workload: E9's crash-free run (n=5, stable leader, alternating senders)",
			"transform workload: E3's Alg1(EC->ETOB) over Alg4 (n=3, Omega stabilizes at 600); tau measured by the ETOB checker",
			"the adversary is protocol-blind: when its victim rotation happens to spare the post-stabilization leader (as on the transform workload), i.i.d. noise can cost more — a reminder that the worst admissible schedule is protocol-aware",
			"seeds 1-20, quick and full scale: the adversary's broadcast worst decision latency exceeds i.i.d.'s on 39 of 40 runs, its convergence time on 22 of 40, and its transform convergence on none",
		},
	}}
	msgs := 6
	if opts.Quick {
		msgs = 3
	}
	for _, adversarial := range []bool{false, true} {
		adversarial := adversarial
		s.cells = append(s.cells, func() cellOut { return e12BroadcastCell(opts, adversarial, msgs) })
	}
	for _, adversarial := range []bool{false, true} {
		adversarial := adversarial
		s.cells = append(s.cells, func() cellOut { return e12TransformCell(opts, adversarial) })
	}
	return s
}

// e12BroadcastCell is the E9-style workload: ETOB broadcast convergence.
func e12BroadcastCell(opts Options, adversarial bool, msgs int) cellOut {
	return schedulerBroadcastCell(opts, e12Name(adversarial), e12Net(adversarial), msgs)
}

// schedulerBroadcastCell runs the broadcast workload under a named scheduler;
// E12 (i.i.d. vs blind adversary) and E13 (the three-way head-to-head) share
// it so their cells differ only in the network factory under test.
func schedulerBroadcastCell(opts Options, scheduler string, net sim.NetworkFactory, msgs int) cellOut {
	const n = 5
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaStable(fp, 1)
	rec := trace.NewRecorder(n)
	k := sim.New(fp, det, etob.Factory(), sim.Options{Seed: opts.seed(), Network: net})
	k.SetObserver(rec)
	var ids []string
	var sentAt []model.Time
	for i := 0; i < msgs; i++ {
		sender := model.ProcID(2)
		if i%2 == 1 {
			sender = model.ProcID(4)
		}
		at := model.Time(100 + 300*i)
		id := fmt.Sprintf("m%d", i)
		ids = append(ids, id)
		sentAt = append(sentAt, at)
		k.ScheduleInput(sender, at, model.BroadcastInput{ID: id})
	}
	correct := fp.Correct()
	k.RunUntil(30000, func(*sim.Kernel) bool { return rec.AllDelivered(correct, ids) })
	k.Run(k.Now() + 500)

	convergedAt, worst := model.Time(0), model.Time(0)
	converged := true
	for i, id := range ids {
		for _, p := range correct {
			st, ok := rec.StableDeliveryTime(p, id)
			if !ok {
				converged = false
				continue
			}
			if st > convergedAt {
				convergedAt = st
			}
			if lat := st - sentAt[i]; lat > worst {
				worst = lat
			}
		}
	}
	convergedCell, latencyCell := "-", "-"
	if converged {
		convergedCell, latencyCell = fmt.Sprint(convergedAt), fmt.Sprint(worst)
	}
	return cellOut{rows: [][]string{{
		"broadcast (E9)", scheduler, boolCell(converged), convergedCell, latencyCell, "-",
	}}, steps: k.Steps()}
}

// e12TransformCell is the E3-style workload: Alg1 over Alg4, ETOB-checked.
func e12TransformCell(opts Options, adversarial bool) cellOut {
	return schedulerTransformCell(opts, e12Name(adversarial), e12Net(adversarial))
}

// transformWorkload builds the transform workload SHARED by E12 and E13 —
// Alg1 over Alg4 on n=3 under an Ω stabilizing on p1 at 600, with the
// canonical nine-broadcast input schedule — so the two experiments compare
// schedulers over identical inputs, detector, seed, and protocol stack by
// construction (E13's claim depends on it; only the run-length and the
// convergence metric differ between them).
func transformWorkload(opts Options, net sim.NetworkFactory) (k *sim.Kernel, rec *trace.Recorder, ids []string, correct []model.ProcID) {
	const n = 3
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaEventual(fp, 1, 600)
	rec = trace.NewRecorder(n)
	factory := transform.ECToETOBFactory(func(p model.ProcID, nn int) transform.ECProtocol {
		return ec.New(p, nn)
	})
	k = sim.New(fp, det, factory, sim.Options{Seed: opts.seed(), Network: net})
	k.SetObserver(rec)
	for i := 0; i < 3; i++ {
		for _, p := range model.Procs(n) {
			id := fmt.Sprintf("p%d#%d", p, i)
			ids = append(ids, id)
			k.ScheduleInput(p, model.Time(30+40*i)+model.Time(p), model.BroadcastInput{ID: id})
		}
	}
	return k, rec, ids, fp.Correct()
}

// schedulerTransformCell runs the transform workload under a named scheduler.
// This is the cell whose protocol-blind honesty note motivated the
// leader-aware scheduler: the rotation can spare the post-stabilization
// leader here.
func schedulerTransformCell(opts Options, scheduler string, net sim.NetworkFactory) cellOut {
	k, rec, ids, correct := transformWorkload(opts, net)
	k.RunUntil(30000, func(k *sim.Kernel) bool {
		return k.Now() > 800 && rec.AllDelivered(correct, ids)
	})
	settle := k.Now()
	k.Run(settle + 1000)
	rep := trace.CheckETOB(rec, correct, trace.CheckOptions{InputCutoff: 500, SettleTime: settle})

	convergedAt := model.Time(0)
	converged := true
	for _, id := range ids {
		for _, p := range correct {
			st, ok := rec.StableDeliveryTime(p, id)
			if !ok {
				converged = false
				continue
			}
			if st > convergedAt {
				convergedAt = st
			}
		}
	}
	convergedCell := "-"
	if converged {
		convergedCell = fmt.Sprint(convergedAt)
	}
	return cellOut{rows: [][]string{{
		"transform (E3)", scheduler, boolCell(converged && rep.OK()), convergedCell, "-",
		fmt.Sprintf("tau=%d", rep.Tau),
	}}, steps: k.Steps()}
}

func e12Name(adversarial bool) string {
	if adversarial {
		return "adversarial"
	}
	return "i.i.d."
}
