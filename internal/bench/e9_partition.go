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

// E9PartitionSweep measures eventual consistency under crash-free network
// partitions (the sim.Partitioned / sim.MultiPartitioned network models).
// All five processes stay up; links sever at t=500 and heal after the
// sweep's duration, with cross-partition traffic buffered until the heal
// (eventual delivery, §2). The paper's claim: EC/ETOB needs only Ω and an
// environment with eventual delivery — so convergence must always be
// reached, with the convergence lag tracking partition length rather than
// diverging.
//
// Three axes share the table:
//
//   - the original two-sided duration sweep ({p1,p2} | {p3,p4,p5}) for ETOB;
//   - multi-way (k-side) partitions at a fixed duration: the network
//     fragments into 3 and 4 mutually isolated sides and ETOB still
//     reconverges after the heal (nothing in Algorithm 5 assumes two sides);
//   - the strong baselines on the two-sided split: the Paxos log with
//     majority quorums (Ω only) stalls while its leader sits in the minority
//     side and catches up after the heal, and with Σ quorums (detector Ω+Σ)
//     it behaves the same here — buffered links stall any quorum that spans
//     the cut — so the contrast with ETOB is in decision latency, not
//     liveness.
//
// Reported per row: when the last correct process stably delivered the last
// broadcast (EC convergence), how far behind the heal that is, and the worst
// per-broadcast decision latency (stable delivery at ALL correct processes
// minus broadcast time).
func E9PartitionSweep(opts Options) Table { return e9Spec(opts).run() }

// e9Case parameterizes one E9 cell: a protocol stack over a partition shape.
type e9Case struct {
	protocol string
	factory  model.AutomatonFactory
	det      func(fp *model.FailurePattern) fd.Detector
	sides    int
	dur      model.Time
}

// e9Spec decomposes E9 into one cell per (protocol, sides, duration).
func e9Spec(opts Options) spec {
	const (
		n       = 5
		splitAt = 500 // partition onset
	)
	durations := []model.Time{0, 500, 1000, 2000, 4000}
	baselineDur := model.Time(2000)
	kSides := []int{3, 4}
	msgs := 6
	if opts.Quick {
		durations = []model.Time{0, 1000}
		baselineDur = 1000
		kSides = []int{3}
		msgs = 3
	}
	omega := func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaStable(fp, 1) }
	omegaSigma := func(fp *model.FailurePattern) fd.Detector {
		return fd.NewOmegaSigma(fd.NewOmegaStable(fp, 1), fd.NewSigma(fp, 0))
	}
	s := spec{shell: Table{
		ID:     "E9",
		Title:  "EC convergence and decision latency vs partition length, k-side partitions, and strong baselines",
		Claim:  "with eventual delivery, ETOB (Omega only) always reconverges — across any partition length and any number of sides; lag tracks partition length (paper §2, Theorem 2)",
		Header: []string{"protocol", "sides", "partition len", "heal at", "converged", "converged at", "lag after heal", "worst decision latency"},
		Notes: []string{
			fmt.Sprintf("n=%d, crash-free; partitions form at t=%d; %d broadcasts from senders on different sides", n, splitAt, msgs),
			"2 sides: {p1,p2} | {p3,p4,p5} (sim.Partitioned); k sides: p on side (p-1) mod k (sim.MultiPartitioned)",
			"cross-partition messages are buffered and released at heal time (eventual delivery)",
			"baselines: Paxos log over majority and Sigma quorums — any quorum spanning the cut stalls until the heal",
		},
	}}
	var cases []e9Case
	for _, dur := range durations {
		cases = append(cases, e9Case{"ETOB (Omega)", etob.Factory(), omega, 2, dur})
	}
	for _, k := range kSides {
		cases = append(cases, e9Case{"ETOB (Omega)", etob.Factory(), omega, k, baselineDur})
	}
	cases = append(cases,
		e9Case{"Paxos majority (Omega)", consensus.LogFactory(consensus.MajorityQuorums), omega, 2, baselineDur},
		e9Case{"Paxos Sigma (Omega+Sigma)", consensus.LogFactory(consensus.SigmaQuorums), omegaSigma, 2, baselineDur},
	)
	for _, c := range cases {
		c := c
		s.cells = append(s.cells, func() cellOut {
			return e9Cell(opts, c, splitAt, msgs, n)
		})
	}
	return s
}

// e9Cell runs one partition run and reports its row.
func e9Cell(opts Options, c e9Case, splitAt model.Time, msgs, n int) cellOut {
	fp := model.NewFailurePattern(n)
	det := c.det(fp)
	rec := trace.NewRecorder(n)
	k := sim.New(fp, det, c.factory, sim.Options{
		Seed: opts.seed(),
		Network: func() sim.NetworkModel {
			if c.sides == 2 {
				return &sim.Partitioned{LeftSize: 2, FirstAt: splitAt, Duration: c.dur}
			}
			return &sim.MultiPartitioned{Sides: c.sides, FirstAt: splitAt, Duration: c.dur}
		},
	})
	k.SetObserver(rec)
	var ids []string
	var sentAt []model.Time
	for i := 0; i < msgs; i++ {
		// Alternate senders that sit on different sides under both the
		// two-sided split and every k-way assignment used here.
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
	heal := splitAt + c.dur
	horizon := heal + 20000
	correct := fp.Correct() // hoisted: the stop predicate runs per event
	k.RunUntil(horizon, func(*sim.Kernel) bool { return rec.AllDelivered(correct, ids) })
	k.Run(k.Now() + 500)

	convergedAt := model.Time(0)
	worstLatency := model.Time(0)
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
			if lat := st - sentAt[i]; lat > worstLatency {
				worstLatency = lat
			}
		}
	}
	// "-" cells: no heal event when dur == 0 (no partition ever forms),
	// and no convergence figures when a run did not converge.
	healCell, convergedCell, lagCell, latencyCell := "-", "-", "-", "-"
	if c.dur > 0 {
		healCell = fmt.Sprint(heal)
	}
	if converged {
		convergedCell = fmt.Sprint(convergedAt)
		latencyCell = fmt.Sprint(worstLatency)
		if c.dur > 0 {
			lag := convergedAt - heal
			if lag < 0 {
				lag = 0 // converged before the heal
			}
			lagCell = fmt.Sprint(lag)
		}
	}
	return cellOut{rows: [][]string{{
		c.protocol, fmt.Sprint(c.sides), fmt.Sprint(c.dur), healCell,
		boolCell(converged), convergedCell, lagCell, latencyCell,
	}}, steps: k.Steps()}
}
