// Package bench regenerates every experiment table of this reproduction. The
// paper is a theory paper — its "evaluation" is a set of proved claims — so
// each experiment operationalizes one claim as a measurable table:
//
//	E1  §5/§7     ETOB delivers in 2 communication steps; Paxos needs 3
//	E2  Lemma 2   Algorithm 4 implements EC with Ω in any environment
//	E3  Theorem 1 EC ≡ ETOB (Algorithms 1 and 2, plus the roundtrip)
//	E4  Lemma 1   Ω is extractable from any D implementing EC (CHT)
//	E5  §1/§7     Σ is the exact gap: quorum protocols block with a correct
//	              minority, ETOB and Ω+Σ protocols progress
//	E6  §5 P2     stable Ω from t=0 ⇒ Algorithm 5 is strong TOB (τ = 0)
//	E7  §5 P3     causal order holds even during leader disagreement
//	E8  App. A    EC ≡ EIC (Algorithms 6 and 7; revocations are finite)
//	E9  §2/Thm 2  EC reconverges after crash-free network partitions of any
//	              length and side count, vs the strong Paxos baselines
//	              (sweep over sim.Partitioned / sim.MultiPartitioned)
//	E10 §2        EC rides out churn (crash+restart via adversary.Churn and
//	              the kernel's suspend/restart semantics) once retransmission
//	              restores eventual delivery; lag tracks the churn rate
//	E11 §2        the eventual-delivery assumption itself: raw message loss
//	              (adversary.Lossy) breaks EC-Termination, retransmit.Wrap
//	              restores a finite convergence tick at every loss rate
//	E12 §2        the scheduler as adversary: divergence-maximizing delays
//	              (adversary.AdversarialScheduler) vs i.i.d. over the same
//	              bounds — convergence still happens, but later
//	E13 §2        the worst admissible schedule is PROTOCOL-AWARE: the
//	              leader-starving scheduler (adversary.LeaderStarver, fed by
//	              the kernel's Ω observation hook) vs the blind rotation vs
//	              i.i.d., quantifying the inversion E12's honesty note
//	              flagged — the blind rotation can cost less than noise,
//	              leader-awareness costs ~10x over both
//
// All experiments run on the deterministic kernel; absolute times are
// simulator ticks, and "steps" are message delays: the paper counts
// communication steps, and local timeouts are an additive, tunable term.
//
// The suite lives in a single ordered registry (registry.go) from which All,
// ByID, IDs, and the parallel sweep Runner all derive. Every experiment is
// decomposed into independent seeded cells; Runner fans the cells of a whole
// run across a bounded worker pool and reassembles rows in registry order,
// so parallel output is byte-identical to serial. Report (report.go) is the
// machine-readable JSON report cmd/bench -json writes alongside the tables.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's regenerated result.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text with a Markdown-compatible grid.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "Claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tune experiment scale.
type Options struct {
	// Quick shrinks workloads for tests and CI smoke runs.
	Quick bool
	// Seed is the base PRNG seed (experiments derive from it).
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func boolCell(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
