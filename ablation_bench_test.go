package repro

import (
	"fmt"
	"testing"

	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Ablation benches for three free parameters of the reproduction: promote
// cadence, scheduler delay spread, and dependency-declaration strategy. Each
// reports the headline metric as a custom unit.

// BenchmarkAblationPromoteCadence varies the λ-step (promote) interval
// relative to a fixed link delay D: the measured delivery latency should be
// 2 steps plus the expected wait for the leader's next promote — showing the
// "2 communication steps" claim is about message delays, with the timeout an
// additive, tunable term.
func BenchmarkAblationPromoteCadence(b *testing.B) {
	const delay = 1000
	for _, tick := range []model.Time{1, 100, 500, 1000} {
		b.Run(fmt.Sprintf("tick=%d", tick), func(b *testing.B) {
			var total float64
			var count int
			for i := 0; i < b.N; i++ {
				fp := model.NewFailurePattern(3)
				det := fd.NewOmegaStable(fp, 1)
				rec := trace.NewRecorder(3)
				k := sim.New(fp, det, etob.Factory(), sim.Options{
					Seed: int64(i + 1), MinDelay: delay, MaxDelay: delay,
					TickInterval: tick, MaxTime: 1 << 40,
				})
				k.SetObserver(rec)
				// Random phase w.r.t. the tick grid, so the expected wait for
				// the leader's next promote (≈ tick/2) is visible.
				at := model.Time(10_000 + (i*777)%1000)
				k.ScheduleInput(2, at, model.BroadcastInput{ID: "m"})
				k.RunUntil(at+20*delay, func(*sim.Kernel) bool {
					return rec.AllDelivered(fp.Correct(), []string{"m"})
				})
				k.Run(k.Now() + 3*delay)
				for _, p := range fp.Correct() {
					if st, ok := rec.StableDeliveryTime(p, "m"); ok {
						total += float64(st-at) / delay
						count++
					}
				}
			}
			if count > 0 {
				b.ReportMetric(total/float64(count), "steps")
			}
		})
	}
}

// BenchmarkAblationDelaySpread varies the link-delay spread (min..max) and
// reports the measured ETOB stabilization τ under a fixed Ω stabilization:
// more reordering widens the divergence window the checkers observe.
func BenchmarkAblationDelaySpread(b *testing.B) {
	type spread struct{ lo, hi model.Time }
	for _, s := range []spread{{10, 10}, {10, 40}, {10, 160}} {
		b.Run(fmt.Sprintf("delay=%d..%d", s.lo, s.hi), func(b *testing.B) {
			var tauSum float64
			for i := 0; i < b.N; i++ {
				fp := model.NewFailurePattern(4)
				det := fd.NewOmegaSplit(fp, 2, 1, 1, 1200)
				rec := trace.NewRecorder(4)
				k := sim.New(fp, det, etob.Factory(), sim.Options{
					Seed: int64(i + 1), MinDelay: s.lo, MaxDelay: s.hi,
				})
				k.SetObserver(rec)
				var ids []string
				for m := 0; m < 8; m++ {
					id := fmt.Sprintf("m%d", m)
					ids = append(ids, id)
					k.ScheduleInput(model.ProcID(m%4+1), model.Time(20+3*m), model.BroadcastInput{ID: id})
				}
				k.RunUntil(20000, func(k *sim.Kernel) bool {
					return k.Now() > 1500 && rec.AllDelivered(fp.Correct(), ids)
				})
				k.Run(k.Now() + 500)
				rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{})
				tauSum += float64(rep.Tau)
			}
			b.ReportMetric(tauSum/float64(b.N), "tau")
		})
	}
}

// BenchmarkAblationDependencyStrategy compares protocol-computed frontier
// dependencies against client-declared chains: the frontier strategy keeps
// the causality graph dense (more edges) but still linearizes in the same
// promote time; the metric is messages sent per delivered broadcast.
func BenchmarkAblationDependencyStrategy(b *testing.B) {
	for _, strategy := range []string{"frontier", "explicit-chain", "no-deps"} {
		b.Run(strategy, func(b *testing.B) {
			var msgs float64
			for i := 0; i < b.N; i++ {
				fp := model.NewFailurePattern(3)
				det := fd.NewOmegaStable(fp, 1)
				rec := trace.NewRecorder(3)
				k := sim.New(fp, det, etob.Factory(), sim.Options{Seed: int64(i + 1)})
				k.SetObserver(rec)
				var ids []string
				prev := ""
				for m := 0; m < 10; m++ {
					id := fmt.Sprintf("m%d", m)
					in := model.BroadcastInput{ID: id}
					switch strategy {
					case "explicit-chain":
						if prev != "" {
							in.Deps = []string{prev}
						}
					case "no-deps":
						in.Deps = []string{} // non-nil empty: no causal constraints
					}
					prev = id
					ids = append(ids, id)
					k.ScheduleInput(model.ProcID(m%3+1), model.Time(20+25*m), in)
				}
				k.RunUntil(20000, func(*sim.Kernel) bool {
					return rec.AllDelivered(fp.Correct(), ids)
				})
				msgs += float64(rec.Sends()) / float64(len(ids))
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/bcast")
		})
	}
}
