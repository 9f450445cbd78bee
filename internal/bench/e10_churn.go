package bench

import (
	"fmt"

	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/sim/adversary"
	"repro/internal/trace"
)

// E10ChurnSweep measures eventual consistency under CHURN: processes crash
// and rejoin on a seeded schedule (adversary.Churn via the kernel's
// suspend/restart semantics), with the churn rate — the mean up/down interval
// length — as the sweep parameter. Ω is the live-set detector fd.OmegaUp, so
// leadership genuinely fails over and back across down intervals.
//
// Churn is outside the paper's monotone model: a restarted process lost its
// state AND every message sent to it while down, so the §2 eventual-delivery
// assumption no longer comes for free. The run restores it end-to-end with
// retransmit.Wrap (resends outlive the receiver's down interval and reach its
// next incarnation), which is what makes convergence reachable in every cell;
// the experiment then shows the convergence LAG tracking churn violence —
// the same shape as E9's partition sweep, on the failure axis instead of the
// link axis.
func E10ChurnSweep(opts Options) Table { return e10Spec(opts).run() }

// e10Spec decomposes E10 into one cell per churn rate.
func e10Spec(opts Options) spec {
	const (
		n     = 5
		until = 6000 // churn window: no down interval starts after this
	)
	// Sweep the mean up-interval length; the mean down interval stays half of
	// it, so faster churn = both shorter lives and proportionally longer
	// relative downtime.
	scales := []model.Time{400, 800, 1600, 3200}
	msgs := 6
	if opts.Quick {
		scales = []model.Time{400, 1600}
		msgs = 3
	}
	s := spec{shell: Table{
		ID:     "E10",
		Title:  "EC convergence under churn (crash+restart) vs mean up/down interval",
		Claim:  "with eventual delivery restored by retransmission, EC rides out churn: stability is withheld while leadership keeps changing and convergence lands right after the schedule quiets",
		Header: []string{"mean up", "mean down", "restarts", "converged", "converged at", "lag after churn", "worst delivery latency"},
		Notes: []string{
			fmt.Sprintf("n=%d, p1..p%d churn until t=%d (adversary.Churn), then stay up; Omega = fd.OmegaUp over the schedule, failing over to the smallest up process", n, n-1, until),
			fmt.Sprintf("the eventual leader p%d is spared (the Omega spec wants an eventually-up leader; a restarted one is mute under ETOB's stale-promote guard)", n),
			"ETOB wrapped in retransmit.Wrap: resends cross down intervals, so restarted replicas recover",
			"lag after churn = convergence time minus the schedule's quiet point",
			"worst delivery latency = max over (message, process) of stable delivery minus broadcast time: every leadership change can unwind stability, so heavy churn holds it hostage until the quiet point while mild churn releases it early",
		},
	}}
	for _, scale := range scales {
		s.cells = append(s.cells, func() cellOut {
			return e10Cell(opts, scale, until, msgs, n)
		})
	}
	return s
}

// e10Cell runs one churn-rate cell and reports its row.
func e10Cell(opts Options, scale, until model.Time, msgs, n int) cellOut {
	// The eventual leader p_n is spared from churn: ETOB's stale-promote
	// guard (PromoteMsg.Counter) silences a restarted leader until its fresh
	// counter overtakes its pre-crash one, so an eventual leader that
	// restarts would be mute for arbitrarily long — the Ω spec only promises
	// an eventually-up leader, and sparing one process realizes it. Everyone
	// else churns, and fd.OmegaUp makes leadership fail over through the
	// churning processes (smallest up) until the schedule quiets.
	leader := model.ProcID(n)
	fs := adversary.Churn(n, adversary.ChurnConfig{
		Seed:     opts.seed() + int64(scale),
		MeanUp:   scale,
		MeanDown: scale / 2,
		Until:    until,
		Spare:    []model.ProcID{leader},
	})
	fp := model.NewFailurePattern(n) // all correct: churned processes are eventually up
	det := fd.NewOmegaUp(n, leader, fs.QuietAfter(), fs.Up, fs.Boundaries())
	rec := trace.NewRecorder(n)
	k := sim.New(fp, det, retransmit.Wrap(etob.Factory(), retransmit.Options{Seed: opts.seed()}),
		sim.Options{Seed: opts.seed(), Faults: fs})
	k.SetObserver(rec)
	var ids []string
	var restarts int
	for _, p := range model.Procs(n) {
		restarts += len(fs.Restarts(p))
	}
	var sentAt []model.Time
	for i := 0; i < msgs; i++ {
		at := model.Time(100) + model.Time(i)*until/model.Time(msgs)
		// Submit to a replica that is up at the invocation and stays up long
		// enough to push the operation out (a real client retries elsewhere
		// if its replica dies immediately; the deterministic equivalent is
		// picking a stably-up replica from the schedule).
		sender := stableSender(fs, at, at+2*scale)
		id := fmt.Sprintf("m%d", i)
		ids = append(ids, id)
		sentAt = append(sentAt, at)
		k.ScheduleInput(sender, at, model.BroadcastInput{ID: id})
	}
	quiet := fs.QuietAfter()
	correct := model.Procs(n)
	// Convergence only counts after the schedule quiets: mid-churn a
	// restarted leader with an empty promote can transiently regress other
	// replicas, so stopping on an early AllDelivered would freeze a state the
	// next leadership change still unwinds.
	k.RunUntil(quiet+30000, func(k *sim.Kernel) bool {
		return k.Now() > quiet && rec.AllDelivered(correct, ids)
	})
	k.Run(k.Now() + 500)

	convergedAt, worstLatency := model.Time(0), model.Time(0)
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
	convergedCell, lagCell, latencyCell := "-", "-", "-"
	if converged {
		convergedCell = fmt.Sprint(convergedAt)
		latencyCell = fmt.Sprint(worstLatency)
		lag := convergedAt - quiet
		if lag < 0 {
			lag = 0
		}
		lagCell = fmt.Sprint(lag)
	}
	return cellOut{rows: [][]string{{
		fmt.Sprint(scale), fmt.Sprint(scale / 2), fmt.Sprint(restarts),
		boolCell(converged), convergedCell, lagCell, latencyCell,
	}}, steps: k.Steps()}
}

// stableSender picks the smallest process that is up throughout [from, to]
// per the schedule (checked at the endpoints and every schedule boundary
// between them), falling back to the smallest process up at from.
func stableSender(fs *adversary.FaultSchedule, from, to model.Time) model.ProcID {
	bounds := fs.Boundaries()
	upDuring := func(p model.ProcID) bool {
		if !fs.Up(p, from) || !fs.Up(p, to) {
			return false
		}
		for _, b := range bounds {
			if b > from && b < to && !fs.Up(p, b) {
				return false
			}
		}
		return true
	}
	for _, p := range model.Procs(fs.N()) {
		if upDuring(p) {
			return p
		}
	}
	for _, p := range model.Procs(fs.N()) {
		if fs.Up(p, from) {
			return p
		}
	}
	return 1
}
