package bench

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E5SigmaGap operationalizes the paper's headline gap (§1, §7): with only a
// correct minority, any majority-quorum protocol blocks (0 operations),
// while the paper's ETOB — needing only Ω — keeps delivering; adding the Σ
// oracle (detector Ω+Σ) restores liveness to the strong protocols, showing
// that Σ is exactly the information separating consistency from eventual
// consistency.
func E5SigmaGap(opts Options) Table { return e5Spec(opts).run() }

// e5Spec decomposes E5 into one cell per protocol: three broadcast stacks
// and two ABD register configurations. Each cell builds its own crash
// pattern, so nothing is shared.
func e5Spec(opts Options) spec {
	const n = 5
	// 2 of 5 correct: p3, p4, p5 crash at t=0.
	mkPattern := func() *model.FailurePattern {
		fp := model.NewFailurePattern(n)
		fp.Crash(3, 0)
		fp.Crash(4, 0)
		fp.Crash(5, 0)
		return fp
	}
	ops := 6
	if opts.Quick {
		ops = 3
	}
	s := spec{shell: Table{
		ID:     "E5",
		Title:  "Progress with a correct MINORITY (2 of 5)",
		Claim:  "eventual consistency needs only Omega; strong consistency additionally needs Sigma (the exact gap)",
		Header: []string{"protocol", "detector", "ops submitted", "ops completed", "live"},
		Notes: []string{
			"broadcast protocols: completed = messages stably delivered at every correct process",
			"ABD register: completed = finished read/write operations at the clients",
		},
	}}

	// Broadcast protocols.
	type bcase struct {
		name    string
		factory model.AutomatonFactory
		det     func(fp *model.FailurePattern) fd.Detector
		detName string
	}
	bcases := []bcase{
		{"ETOB (Alg 5)", etob.Factory(),
			func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaStable(fp, 1) }, "Omega"},
		{"Paxos log, majority", consensus.LogFactory(consensus.MajorityQuorums),
			func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaStable(fp, 1) }, "Omega"},
		{"Paxos log, Sigma quorums", consensus.LogFactory(consensus.SigmaQuorums),
			func(fp *model.FailurePattern) fd.Detector {
				return fd.NewOmegaSigma(fd.NewOmegaStable(fp, 1), fd.NewSigma(fp, 0))
			}, "Omega+Sigma"},
	}
	for _, c := range bcases {
		s.cells = append(s.cells, func() cellOut {
			fp := mkPattern()
			rec := trace.NewRecorder(n)
			k := sim.New(fp, c.det(fp), c.factory, sim.Options{Seed: opts.seed()})
			k.SetObserver(rec)
			var ids []string
			for i := 0; i < ops; i++ {
				p := fp.Correct()[i%2]
				id := fmt.Sprintf("op%d", i)
				ids = append(ids, id)
				k.ScheduleInput(p, model.Time(30+40*i), model.BroadcastInput{ID: id})
			}
			k.RunUntil(20000, func(*sim.Kernel) bool { return rec.AllDelivered(fp.Correct(), ids) })
			k.Run(k.Now() + 500)
			completed := 0
			for _, id := range ids {
				everywhere := true
				for _, p := range fp.Correct() {
					if _, ok := rec.StableDeliveryTime(p, id); !ok {
						everywhere = false
						break
					}
				}
				if everywhere {
					completed++
				}
			}
			return cellOut{rows: [][]string{{
				c.name, c.detName, fmt.Sprint(ops), fmt.Sprint(completed), boolCell(completed == ops),
			}}, steps: k.Steps()}
		})
	}

	// ABD register (read/write quorum substrate).
	type rcase struct {
		name    string
		mode    quorum.Mode
		det     func(fp *model.FailurePattern) fd.Detector
		detName string
	}
	rcases := []rcase{
		{"ABD register, majority", quorum.Majority,
			func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaStable(fp, 1) }, "Omega"},
		{"ABD register, Sigma quorums", quorum.SigmaFD,
			func(fp *model.FailurePattern) fd.Detector {
				return fd.NewOmegaSigma(fd.NewOmegaStable(fp, 1), fd.NewSigma(fp, 0))
			}, "Omega+Sigma"},
	}
	for _, c := range rcases {
		s.cells = append(s.cells, func() cellOut {
			fp := mkPattern()
			done := 0
			k := sim.New(fp, c.det(fp), quorum.Factory(c.mode), sim.Options{Seed: opts.seed()})
			k.SetObserver(&opCounter{count: &done})
			for i := 0; i < ops; i++ {
				if i%2 == 0 {
					k.ScheduleInput(1, model.Time(30+60*i), quorum.WriteInput{Value: fmt.Sprintf("v%d", i)})
				} else {
					k.ScheduleInput(2, model.Time(30+60*i), quorum.ReadInput{})
				}
			}
			k.Run(20000)
			return cellOut{rows: [][]string{{
				c.name, c.detName, fmt.Sprint(ops), fmt.Sprint(done), boolCell(done == ops),
			}}, steps: k.Steps()}
		})
	}
	return s
}

// opCounter counts completed register operations.
type opCounter struct {
	sim.NopObserver
	count *int
}

func (o *opCounter) OnOutput(_ model.ProcID, _ model.Time, v any) {
	switch v.(type) {
	case quorum.WriteDone, quorum.ReadDone:
		*o.count++
	}
}
