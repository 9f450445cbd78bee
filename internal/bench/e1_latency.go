package bench

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// e1Spec decomposes E1 into one cell per protocol.
//
// E1 measures broadcast→stable-delivery latency in communication
// steps (units of the fixed link delay D) under a stable leader, for the
// paper's ETOB versus the strong baselines. The paper's claim (§5, §7):
// ETOB completes an operation in the optimal TWO communication steps, while
// strongly consistent broadcast needs THREE in the worst case [Lamport 06].
func e1Spec(opts Options) spec {
	const (
		n     = 5
		delay = 1000 // D: link delay; ticks are 1, so steps ≈ latency/D
	)
	msgs := 8
	if opts.Quick {
		msgs = 3
	}
	protocols := []struct {
		name    string
		factory model.AutomatonFactory
		expect  string
	}{
		{"ETOB (Alg 5, Ω)", etob.Factory(), "2"},
		{"Paxos log (Ω, majority)", consensus.LogFactory(consensus.MajorityQuorums), "3"},
		{"TOB = Alg1 over consensus", consensus.TOBFactory(consensus.MajorityQuorums), ">=3"},
	}
	s := spec{shell: Table{
		ID:     "E1",
		Title:  "Delivery latency in communication steps (stable leader)",
		Claim:  "ETOB delivers after 2 message delays; strong TOB needs >=3 (paper §5 property 1, §7)",
		Header: []string{"protocol", "mean steps", "min", "max", "paper"},
		Notes: []string{
			fmt.Sprintf("n=%d, link delay D=%d, tick=1, %d isolated broadcasts from non-leader processes", n, delay, msgs),
			"steps = (stable delivery time at ALL correct processes - broadcast time) / D, rounded to 0.1",
		},
	}}
	for _, proto := range protocols {
		s.cells = append(s.cells, func() cellOut {
			fp := model.NewFailurePattern(n)
			det := fd.NewOmegaStable(fp, 1)
			rec := trace.NewRecorder(n)
			k := sim.New(fp, det, proto.factory, sim.Options{
				Seed: opts.seed(), MinDelay: delay, MaxDelay: delay, TickInterval: 1, MaxTime: 1 << 40,
			})
			k.SetObserver(rec)
			var ids []string
			var sentAt []model.Time
			for i := 0; i < msgs; i++ {
				// Isolated broadcasts from rotating non-leader senders.
				sender := model.ProcID(2 + i%(n-1))
				at := model.Time(10_000 * (i + 1))
				id := fmt.Sprintf("m%d", i)
				ids = append(ids, id)
				sentAt = append(sentAt, at)
				k.ScheduleInput(sender, at, model.BroadcastInput{ID: id})
			}
			k.RunUntil(model.Time(10_000*(msgs+4)), func(*sim.Kernel) bool {
				return rec.AllDelivered(fp.Correct(), ids)
			})
			k.Run(k.Now() + 8*delay)

			var sum, minS, maxS float64
			count := 0
			for i, id := range ids {
				worst := model.Time(0)
				ok := true
				for _, p := range fp.Correct() {
					st, has := rec.StableDeliveryTime(p, id)
					if !has {
						ok = false
						break
					}
					if lat := st - sentAt[i]; lat > worst {
						worst = lat
					}
				}
				if !ok {
					continue
				}
				steps := float64(worst) / float64(delay)
				sum += steps
				if count == 0 || steps < minS {
					minS = steps
				}
				if steps > maxS {
					maxS = steps
				}
				count++
			}
			row := []string{proto.name, "undelivered", "-", "-", proto.expect}
			if count > 0 {
				row = []string{
					proto.name,
					fmt.Sprintf("%.1f", sum/float64(count)),
					fmt.Sprintf("%.1f", minS),
					fmt.Sprintf("%.1f", maxS),
					proto.expect,
				}
			}
			return cellOut{rows: [][]string{row}, steps: k.Steps()}
		})
	}
	return s
}
