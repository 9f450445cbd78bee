// Command ecsim runs one simulated execution of a replication protocol under
// a chosen failure pattern and Ω behavior, prints each replica's delivered
// sequence over time, and property-checks the run against the (E)TOB
// specification.
//
// Examples:
//
//	ecsim                                  # 4 replicas, ETOB, split-brain Ω
//	ecsim -protocol paxos -n 5 -crash 5@0  # strong log with one crash
//	ecsim -protocol etob -pre selftrust -stab 2000 -msgs 12
//	ecsim -net partition -horizon 60000    # links partition at t=500, heal at 2500
//	ecsim -net jitter-spiky                # asymmetric links with latency spikes
//	ecsim -net lossy -retransmit           # drop ~15% of messages, restore
//	                                       # eventual delivery end-to-end
//	ecsim -net churn-fast -retransmit      # processes crash and rejoin on the
//	                                       # preset schedule (restart = state
//	                                       # reset); retransmission carries
//	                                       # traffic across down intervals
//	ecsim -net adversarial                 # divergence-maximizing scheduler
//	                                       # (blind rotating victim)
//	ecsim -net leader-starve               # protocol-aware scheduler: links
//	                                       # touching the current Omega leader
//	                                       # pinned at the delay bound
//	ecsim -net churn-lossy -retransmit     # composite preset: churn + ~15% loss
//	ecsim -net hostile -retransmit         # the full stack: leader starvation
//	                                       # over lossy links over churn
//
// The adversarial environment presets come from internal/sim/adversary;
// composite presets (adversary.Composite) name BOTH halves of an environment
// — a layered link stack built with sim.ComposeNetworks and a fault schedule
// — under one -net value. A lossy or churning environment violates the
// paper's eventual-delivery assumption on its own — run it raw to watch the
// property check fail, or with -retransmit to see convergence restored.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	_ "repro/internal/sim/adversary" // init registers the lossy/churn/adversarial/composite presets
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n        = flag.Int("n", 4, "number of processes")
		protocol = flag.String("protocol", "etob", "etob | etobcommit | paxos | tobc (TOB from consensus)")
		pre      = flag.String("pre", "split", "omega pre-stabilization: stable | selftrust | split | rotating")
		stab     = flag.Int64("stab", 1500, "omega stabilization time")
		leader   = flag.Int("leader", 0, "eventual leader (0 = smallest correct)")
		seed     = flag.Int64("seed", 1, "PRNG seed")
		msgs     = flag.Int("msgs", 8, "number of broadcasts")
		horizon  = flag.Int64("horizon", 30000, "max simulated time")
		crashes  = flag.String("crash", "", "comma-separated crashes p@t, e.g. 3@500,4@0")
		network  = flag.String("net", "uniform", "network model preset: "+strings.Join(sim.PresetNames(), " | "))
		retrans  = flag.Bool("retransmit", false, "wrap the protocol in retransmit.Wrap (restores eventual delivery over lossy links and across churn)")
		verbose  = flag.Bool("v", false, "print every d_i snapshot")
	)
	flag.Parse()

	netFactory, err := sim.PresetFactory(*network)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecsim: %v\n", err)
		return 2
	}
	// Probe one instance so a bad flag combination is a diagnostic, not a
	// kernel panic; the kernel builds its own instance from the factory.
	if err := sim.ValidateNetwork(netFactory(), *n); err != nil {
		fmt.Fprintf(os.Stderr, "ecsim: -net %s with -n %d: %v\n", *network, *n, err)
		return 2
	}

	fp := model.NewFailurePattern(*n)
	if *crashes != "" {
		for _, c := range strings.Split(*crashes, ",") {
			parts := strings.SplitN(c, "@", 2)
			if len(parts) != 2 {
				fmt.Fprintf(os.Stderr, "ecsim: bad -crash entry %q (want p@t)\n", c)
				return 2
			}
			p, err1 := strconv.Atoi(parts[0])
			t, err2 := strconv.ParseInt(parts[1], 10, 64)
			if err1 != nil || err2 != nil {
				fmt.Fprintf(os.Stderr, "ecsim: bad -crash entry %q: %v %v\n", c, err1, err2)
				return 2
			}
			fp.Crash(model.ProcID(p), model.Time(t))
		}
	}

	spec := core.OmegaSpec{Leader: model.ProcID(*leader), Stabilization: model.Time(*stab)}
	switch *pre {
	case "stable":
		spec.Pre = core.PreStable
	case "selftrust":
		spec.Pre = core.PreSelfTrust
	case "split":
		spec.Pre = core.PreSplit
	case "rotating":
		spec.Pre = core.PreRotating
	default:
		fmt.Fprintf(os.Stderr, "ecsim: unknown -pre %q\n", *pre)
		return 2
	}
	det := spec.Build(fp)

	var factory model.AutomatonFactory
	switch *protocol {
	case "etob":
		factory = etob.Factory()
	case "etobcommit":
		factory = etob.CommitFactory() // §7 extension: committed-prefix indications
	case "paxos":
		factory = consensus.LogFactory(consensus.MajorityQuorums)
	case "tobc":
		factory = consensus.TOBFactory(consensus.MajorityQuorums)
	default:
		fmt.Fprintf(os.Stderr, "ecsim: unknown -protocol %q\n", *protocol)
		return 2
	}

	if *retrans {
		factory = retransmit.Wrap(factory, retransmit.Options{Seed: *seed})
	}
	// Environment presets can carry a fault schedule (churn-*, churn-lossy,
	// hostile); the kernel then suspends and restarts processes on it. When
	// one is installed it is the kernel's ONLY liveness source, so -crash
	// entries are merged in through model.MergeFaults (down = down in either
	// half) — otherwise they would be silently ignored while the header
	// still printed them.
	var faults model.FaultModel
	if ff := sim.PresetFaults(*network); ff != nil {
		faults = ff(*n)
		if *crashes != "" {
			faults = model.MergeFaults(faults, fp)
		}
	}
	rec := trace.NewRecorder(*n)
	k := sim.New(fp, det, factory, sim.Options{Seed: *seed, Network: netFactory, Faults: faults})
	k.SetObserver(rec)
	var ids []string
	for i := 0; i < *msgs; i++ {
		at := model.Time(20 + 13*i)
		p := model.ProcID(i%*n + 1)
		if !fp.Alive(p, at) {
			p = fp.MinCorrect()
		}
		if faults != nil && !faults.Up(p, at) {
			// Under churn, submit to a process that is actually up. If the
			// schedule has EVERYONE down at this instant the input cannot be
			// submitted at all — say so instead of letting the kernel drop it
			// silently (the convergence predicate would then wait forever for
			// a broadcast that never happened).
			redirected := false
			for _, q := range model.Procs(*n) {
				if faults.Up(q, at) && fp.Alive(q, at) {
					p, redirected = q, true
					break
				}
			}
			if !redirected {
				fmt.Fprintf(os.Stderr, "ecsim: no process is up at t=%d; skipping broadcast m%02d\n", at, i)
				continue
			}
		}
		id := fmt.Sprintf("m%02d", i)
		ids = append(ids, id)
		k.ScheduleInput(p, at, model.BroadcastInput{ID: id})
	}
	k.RunUntil(model.Time(*horizon), func(k *sim.Kernel) bool {
		return k.Now() > model.Time(*stab)+200 && rec.AllDelivered(fp.Correct(), ids)
	})
	settle := k.Now()
	k.Run(settle + 500)

	fmt.Printf("run: n=%d protocol=%s omega=%s/stab=%d pattern=%v seed=%d net=%s\n",
		*n, *protocol, *pre, *stab, fp, *seed, *network)
	fmt.Printf("steps=%d messages=%d dropped=%d lost=%d finished_at=%d\n\n",
		k.Steps(), k.MessagesSent(), k.MessagesDropped(), k.MessagesLost(), k.Now())

	if *verbose {
		for _, p := range model.Procs(*n) {
			for _, pt := range rec.Seqs(p) {
				fmt.Printf("  %v d(%6d) = %v\n", p, pt.T, pt.Seq)
			}
		}
		fmt.Println()
	}
	for _, p := range model.Procs(*n) {
		status := ""
		if !fp.IsCorrect(p) {
			status = " (crashed)"
		}
		fmt.Printf("%v%s final: %v\n", p, status, rec.FinalSeq(p))
	}

	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{SettleTime: settle})
	fmt.Println("\nproperty check:")
	fmt.Printf("  no-creation=%v no-duplication=%v validity=%v agreement=%v causal=%v\n",
		rep.NoCreation.OK, rep.NoDuplication.OK, rep.Validity.OK, rep.Agreement.OK, rep.CausalOrder.OK)
	fmt.Printf("  stability tau=%d total-order tau=%d => tau=%d strongTOB=%v\n",
		rep.StabilityTau, rep.TotalOrderTau, rep.Tau, rep.StrongTOB())
	for _, v := range [][]string{rep.NoCreation.Violations, rep.NoDuplication.Violations,
		rep.Validity.Violations, rep.Agreement.Violations, rep.CausalOrder.Violations} {
		for _, msg := range v {
			fmt.Printf("  violation: %s\n", msg)
		}
	}
	if *protocol == "etobcommit" {
		fmt.Println("\ncommitted prefixes (§7 extension):")
		for _, p := range fp.Correct() {
			auto := k.Automaton(p)
			if w, ok := auto.(*retransmit.Automaton); ok {
				auto = w.Inner()
			}
			a := auto.(*etob.CommitAutomaton)
			fmt.Printf("  %v committed %d/%d delivered\n", p, a.Committed(), len(rec.FinalSeq(p)))
		}
	}
	if !rep.OK() {
		return 1
	}
	return 0
}
