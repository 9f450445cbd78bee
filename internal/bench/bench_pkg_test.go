package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableFormat(t *testing.T) {
	tbl := Table{
		ID:     "EX",
		Title:  "demo",
		Claim:  "c",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"x", "y"}, {"wider-cell", "z"}},
		Notes:  []string{"n1"},
	}
	out := tbl.Format()
	for _, want := range []string{"EX — demo", "Claim: c", "| a ", "long-column", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestByID: experiment IDs resolve case-insensitively, in the requested
// order, and an unknown ID does not resolve.
func TestByID(t *testing.T) {
	ids := []string{"e1", "E2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "E11", "e12", "e13", "e14"}
	specs, err := specsFor(ids, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if !strings.EqualFold(s.shell.ID, ids[i]) {
			t.Errorf("specsFor(%q) resolved to %s", ids[i], s.shell.ID)
		}
	}
	if _, err := specsFor([]string{"e99"}, Options{Quick: true}); err == nil {
		t.Error("unknown ID must not resolve")
	}
}

// The substantive checks: every experiment's rows must support the paper's
// claim, not merely run.

func TestE1StepCounts(t *testing.T) {
	tbl := quickTable(t, "E1")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	etobSteps, paxosSteps := tbl.Rows[0][1], tbl.Rows[1][1]
	if !strings.HasPrefix(etobSteps, "2.") && etobSteps != "2.0" {
		t.Errorf("ETOB steps = %s, want ~2", etobSteps)
	}
	if !strings.HasPrefix(paxosSteps, "3.") && paxosSteps != "3.0" {
		t.Errorf("Paxos steps = %s, want ~3", paxosSteps)
	}
}

func TestE2AllEnvironmentsOK(t *testing.T) {
	tbl := quickTable(t, "E2")
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		if row[3] != "yes" {
			t.Errorf("EC spec failed in %s / %s", row[0], row[1])
		}
	}
}

func TestE3AllStacksOK(t *testing.T) {
	tbl := quickTable(t, "E3")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	for _, row := range tbl.Rows {
		if row[2] != "yes" {
			t.Errorf("stack %s failed its spec", row[0])
		}
	}
}

func TestE4FinalRoundsAgreeAndCorrect(t *testing.T) {
	tbl := quickTable(t, "E4")
	// The LAST round of every scenario must agree on a correct process.
	last := map[string][]string{}
	for _, row := range tbl.Rows {
		last[row[0]+row[1]] = row
	}
	for k, row := range last {
		if row[5] != "yes" || row[6] != "yes" {
			t.Errorf("scenario %s final round: agreed=%s correct=%s (%v)", k, row[5], row[6], row)
		}
	}
}

func TestE5GapShape(t *testing.T) {
	tbl := quickTable(t, "E5")
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	mustLive := []string{"ETOB (Alg 5)", "Paxos log, Sigma quorums", "ABD register, Sigma quorums"}
	mustBlock := []string{"Paxos log, majority", "ABD register, majority"}
	for _, name := range mustLive {
		if byName[name][4] != "yes" {
			t.Errorf("%s must be live with a correct minority: %v", name, byName[name])
		}
	}
	for _, name := range mustBlock {
		if byName[name][3] != "0" {
			t.Errorf("%s must complete 0 ops with a correct minority: %v", name, byName[name])
		}
	}
}

func TestE6AllStrong(t *testing.T) {
	tbl := quickTable(t, "E6")
	for _, row := range tbl.Rows {
		if row[4] != "yes" || row[3] != "0" {
			t.Errorf("stable omega run not strong TOB: %v", row)
		}
	}
}

func TestE7CausalAlwaysHolds(t *testing.T) {
	tbl := quickTable(t, "E7")
	divergedSomewhere := false
	for _, row := range tbl.Rows {
		if row[1] != "yes" {
			t.Errorf("causal order violated: %v", row)
		}
		if row[5] != "yes" {
			t.Errorf("run did not converge: %v", row)
		}
		if row[3] == "yes" {
			divergedSomewhere = true
		}
	}
	if !divergedSomewhere {
		t.Error("expected at least one run with real divergence (tau > 0)")
	}
}

func TestE8BothDirectionsOK(t *testing.T) {
	tbl := quickTable(t, "E8")
	for _, row := range tbl.Rows {
		if row[2] != "yes" {
			t.Errorf("EIC stack failed: %v", row)
		}
	}
}

func TestE9AlwaysReconverges(t *testing.T) {
	tbl := quickTable(t, "E9")
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	var etob2 [][]string // the two-sided ETOB duration sweep, in order
	sawKWay, sawBaseline := false, false
	for _, row := range tbl.Rows {
		if row[4] != "yes" {
			t.Errorf("%s with %s sides, partition length %s never reconverged: %v", row[0], row[1], row[2], row)
		}
		switch {
		case row[0] == "ETOB (Omega)" && row[1] == "2":
			etob2 = append(etob2, row)
		case row[0] == "ETOB (Omega)":
			sawKWay = true
		default:
			sawBaseline = true
		}
	}
	if !sawKWay {
		t.Error("no multi-way (k-side) partition row")
	}
	if !sawBaseline {
		t.Error("no strong-baseline row")
	}
	// Longer partitions must cost decision latency (first row has length 0).
	first, last := etob2[0], etob2[len(etob2)-1]
	firstLat, err1 := strconv.Atoi(first[7])
	lastLat, err2 := strconv.Atoi(last[7])
	if err1 != nil || err2 != nil {
		t.Fatalf("non-numeric latency cells: %q %q", first[7], last[7])
	}
	if firstLat >= lastLat {
		t.Errorf("worst decision latency did not grow with partition length: %v vs %v", first, last)
	}
}

// TestE10ChurnConverges: every churn rate must reach convergence (the
// retransmission layer restores eventual delivery across down intervals), and
// churn must actually have happened (restarts > 0).
func TestE10ChurnConverges(t *testing.T) {
	tbl := quickTable(t, "E10")
	if len(tbl.Rows) < 2 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	for _, row := range tbl.Rows {
		if restarts, err := strconv.Atoi(row[2]); err != nil || restarts == 0 {
			t.Errorf("mean up %s: restarts=%s, want > 0 (no churn exercised)", row[0], row[2])
		}
		if row[3] != "yes" {
			t.Errorf("churn rate %s/%s never converged: %v", row[0], row[1], row)
		}
	}
}

// TestE11LossGate pins the experiment's acceptance shape at both workload
// scales: raw loss at >= 10% drop never converges (EC-Termination breaks with
// eventual delivery), while the retransmission rows converge at EVERY loss
// rate with a finite convergence tick.
func TestE11LossGate(t *testing.T) {
	for _, opts := range []Options{{Quick: true}, {}} {
		tbl := table(t, opts, "E11")
		for _, row := range tbl.Rows {
			rate, err := strconv.Atoi(strings.TrimSuffix(row[0], "%"))
			if err != nil {
				t.Fatalf("bad drop cell %q", row[0])
			}
			switch row[1] {
			case "raw":
				if rate >= 10 && row[2] != "no" {
					t.Errorf("raw loss at %d%% converged — eventual delivery should be broken: %v", rate, row)
				}
				if rate == 0 && row[2] != "yes" {
					t.Errorf("raw loss at 0%% did not converge: %v", row)
				}
			case "retransmit":
				if row[2] != "yes" {
					t.Errorf("retransmission did not restore convergence at %d%%: %v", rate, row)
				}
				if _, err := strconv.Atoi(row[4]); err != nil {
					t.Errorf("retransmit row at %d%% has no finite convergence tick: %v", rate, row)
				}
			default:
				t.Fatalf("unknown mode %q", row[1])
			}
		}
	}
}

// TestE12AdversaryAdmissible: the adversarial scheduler must never prevent
// convergence (it is an admissible environment), and on the broadcast
// workload its worst decision latency must be at least i.i.d.'s.
func TestE12AdversaryAdmissible(t *testing.T) {
	tbl := quickTable(t, "E12")
	lat := map[string]int{}
	for _, row := range tbl.Rows {
		if row[2] != "yes" {
			t.Errorf("%s under %s did not converge: %v", row[0], row[1], row)
		}
		if row[0] == "broadcast (E9)" {
			v, err := strconv.Atoi(row[4])
			if err != nil {
				t.Fatalf("bad latency cell: %v", row)
			}
			lat[row[1]] = v
		}
	}
	if lat["adversarial"] < lat["i.i.d."] {
		t.Errorf("adversarial worst latency %d below i.i.d. %d", lat["adversarial"], lat["i.i.d."])
	}
}

func TestAllRuns(t *testing.T) {
	results := quickSuite(t)
	if len(results) != 14 {
		t.Fatalf("the suite returned %d tables", len(results))
	}
	for _, r := range results {
		if len(r.Table.Rows) == 0 {
			t.Errorf("%s has no rows", r.Table.ID)
		}
		if r.Table.Format() == "" {
			t.Errorf("%s formats empty", r.Table.ID)
		}
	}
}
