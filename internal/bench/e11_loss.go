package bench

import (
	"fmt"

	"repro/internal/ec"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/sim/adversary"
	"repro/internal/trace"
)

// E11LossSweep measures what the paper's §2 eventual-delivery assumption is
// actually WORTH: the same eventual-consensus workload (Algorithm 4, driven
// through a fixed ladder of instances) runs over an increasingly lossy wire
// (adversary.Lossy with bursts), once raw and once inside retransmit.Wrap.
//
// Algorithm 4 sends each promote(v, ℓ) exactly once, so a raw lossy link
// makes EC-Termination structurally fragile: a process that misses the
// leader's single promote for instance ℓ is stuck at ℓ forever — each lost
// leader-promote is a permanent hole, and with L instances and n−1 receivers
// the chance that NO hole opens decays like (1−r)^(L(n−1)). The table shows
// exactly that: convergence at 0 loss, divergence (stuck processes, no
// convergence tick) from 10% up, and — the retransmission layer's point —
// a finite convergence tick restored in EVERY cell once retransmit.Wrap
// carries the same protocol, at the measured cost in resends.
func E11LossSweep(opts Options) Table { return e11Spec(opts).run() }

// e11Spec decomposes E11 into one cell per (drop rate, mode) pair.
func e11Spec(opts Options) spec {
	const (
		n         = 4
		instances = 8
	)
	rates := []float64{0, 0.05, 0.10, 0.20, 0.30}
	if opts.Quick {
		rates = []float64{0, 0.10, 0.30}
	}
	s := spec{shell: Table{
		ID:     "E11",
		Title:  "EC convergence vs message loss, with and without retransmission",
		Claim:  "raw loss breaks eventual delivery and with it EC-Termination; retransmit.Wrap restores both end-to-end",
		Header: []string{"drop", "mode", "converged", "instances decided", "converged at", "lost", "resends"},
		Notes: []string{
			fmt.Sprintf("n=%d, Algorithm 4 driven through %d instances, stable leader p1; adversary.Lossy, bursts up to 4", n, instances),
			"instances decided = min over processes of the consecutively-decided prefix",
			"a process that misses the leader's single promote for an instance is stuck there forever (raw mode)",
			"retransmit resends no sooner than the link's measured timeout (SRTT + 4·RTTVAR, at least 3 ticks): a lost envelope waits about one round trip, which converged at pays under loss",
		},
	}}
	for _, rate := range rates {
		for _, wrapped := range []bool{false, true} {
			rate, wrapped := rate, wrapped
			s.cells = append(s.cells, func() cellOut {
				return e11Cell(opts, rate, wrapped, instances, n)
			})
		}
	}
	return s
}

// e11Cell runs one (rate, mode) cell and reports its row.
func e11Cell(opts Options, rate float64, wrapped bool, instances, n int) cellOut {
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaStable(fp, 1)
	rec := trace.NewRecorder(n)
	driver := func(p model.ProcID, inst int) (string, bool) {
		if inst > instances {
			return "", false
		}
		return fmt.Sprintf("v/%v/%d", p, inst), true
	}
	factory := ec.DrivenFactory(driver)
	if wrapped {
		factory = retransmit.Wrap(factory, retransmit.Options{Seed: opts.seed()})
	}
	k := sim.New(fp, det, factory, sim.Options{
		Seed: opts.seed(),
		Network: func() sim.NetworkModel {
			return &adversary.Lossy{Drop: rate, Burst: 4}
		},
	})
	k.SetObserver(rec)
	correct := fp.Correct()
	k.RunUntil(25000, func(*sim.Kernel) bool { return rec.AllDecided(correct, instances) })
	k.Run(k.Now() + 500)

	decided := instances
	convergedAt := model.Time(0)
	for _, p := range correct {
		have := make(map[int]model.Time, instances)
		for _, d := range rec.Decisions(p) {
			if _, dup := have[d.Instance]; !dup {
				have[d.Instance] = d.T
			}
		}
		prefix := 0
		for {
			t, ok := have[prefix+1]
			if !ok {
				break
			}
			if t > convergedAt {
				convergedAt = t
			}
			prefix++
		}
		if prefix < decided {
			decided = prefix
		}
	}
	converged := decided == instances
	convergedCell := "-"
	if converged {
		convergedCell = fmt.Sprint(convergedAt)
	}
	mode, resends := "raw", "-"
	if wrapped {
		mode = "retransmit"
		var total int64
		for _, p := range correct {
			total += k.Automaton(p).(*retransmit.Automaton).Resends()
		}
		resends = fmt.Sprint(total)
	}
	return cellOut{rows: [][]string{{
		fmt.Sprintf("%.0f%%", rate*100), mode, boolCell(converged),
		fmt.Sprintf("%d/%d", decided, instances), convergedCell,
		fmt.Sprint(k.MessagesLost()), resends,
	}}, steps: k.Steps()}
}
