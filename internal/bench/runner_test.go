package bench

import (
	"strings"
	"testing"
)

// formatAll renders results the way cmd/bench prints them.
func formatAll(results []Result) string {
	var b strings.Builder
	for i, r := range results {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(r.Table.Format())
	}
	return b.String()
}

// TestRunnerParallelMatchesSerial is the sweep engine's golden property: the
// full thirteen-table suite under an 8-worker pool must be byte-identical to
// the serial path (and to the legacy All entry point). Run under -race in CI,
// this also shakes out any shared mutable state between cells.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	opts := Options{Quick: true}
	serial, err := Runner{Opts: opts, Parallel: 1}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Opts: opts, Parallel: 8}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	sOut, pOut := formatAll(serial), formatAll(parallel)
	if sOut != pOut {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, pOut)
	}
	var b strings.Builder
	for i, tbl := range All(opts) {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(tbl.Format())
	}
	if b.String() != sOut {
		t.Fatal("Runner serial output differs from All()")
	}
}

// TestRunnerParallelMatchesSerialAdversary pins the same byte-identity for
// the adversarial-environment experiments specifically (E10 churn, E11 loss,
// E12 scheduler): their cells build seeded schedules, lossy models, and
// retransmission wrappers, and none of that state may leak across workers.
func TestRunnerParallelMatchesSerialAdversary(t *testing.T) {
	ids := []string{"E10", "E11", "E12"}
	opts := Options{Quick: true}
	serial, err := Runner{Opts: opts, Parallel: 1}.Run(ids)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Opts: opts, Parallel: 8}.Run(ids)
	if err != nil {
		t.Fatal(err)
	}
	if sOut, pOut := formatAll(serial), formatAll(parallel); sOut != pOut {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, pOut)
	}
}

// TestRunnerPerfAccounting: cells and steps must be populated — the
// JSON report depends on them.
func TestRunnerPerfAccounting(t *testing.T) {
	results, err := Runner{Opts: Options{Quick: true}, Parallel: 4}.Run([]string{"e1", "E9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Table.ID != "E1" || results[1].Table.ID != "E9" {
		t.Fatalf("unexpected results: %+v", results)
	}
	for _, r := range results {
		if r.Cells == 0 || r.Steps == 0 {
			t.Errorf("%s: cells=%d steps=%d, want both > 0", r.Table.ID, r.Cells, r.Steps)
		}
		if len(r.Table.Rows) == 0 {
			t.Errorf("%s: no rows", r.Table.ID)
		}
	}
}

// TestRunnerRepeatIdenticalRows: -repeat only steadies timings — the
// assembled tables must be byte-identical to a single-shot run, and the
// report must carry the repeat count under the bumped schema.
func TestRunnerRepeatIdenticalRows(t *testing.T) {
	opts := Options{Quick: true}
	once, err := Runner{Opts: opts, Parallel: 2}.Run([]string{"E1", "E11"})
	if err != nil {
		t.Fatal(err)
	}
	thrice, err := Runner{Opts: opts, Parallel: 2, Repeat: 3}.Run([]string{"E1", "E11"})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := formatAll(once), formatAll(thrice); a != b {
		t.Fatalf("repeat changed the tables:\n--- once ---\n%s\n--- median-of-3 ---\n%s", a, b)
	}
	rep := NewReport(opts, 2, 3, thrice, 0)
	if rep.Schema != "repro-bench/6" || rep.Repeat != 3 {
		t.Errorf("report schema/repeat = %q/%d, want repro-bench/6 and 3", rep.Schema, rep.Repeat)
	}
	if rep := NewReport(opts, 2, 0, once, 0); rep.Repeat != 1 {
		t.Errorf("repeat <= 1 must normalize to 1, got %d", rep.Repeat)
	}
	// The spread column: repeated runs must carry a non-negative spread per
	// experiment, single-shot runs exactly zero (nothing to spread over).
	for _, er := range rep.Experiments {
		if er.SpreadMS < 0 {
			t.Errorf("experiment %s: negative spread %v", er.ID, er.SpreadMS)
		}
	}
	for _, er := range NewReport(opts, 2, 1, once, 0).Experiments {
		if er.SpreadMS != 0 {
			t.Errorf("experiment %s: single-shot run has spread %v, want 0", er.ID, er.SpreadMS)
		}
	}
}

// TestRunnerUnknownID: the error must list the valid IDs (cmd/bench prints
// it verbatim).
func TestRunnerUnknownID(t *testing.T) {
	_, err := Runner{Opts: Options{Quick: true}}.Run([]string{"e42"})
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
}

// TestRegistryCoherence: All, ByID, and IDs must agree — they all derive
// from the single registry.
func TestRegistryCoherence(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("IDs() = %v", ids)
	}
	tables := All(Options{Quick: true})
	if len(tables) != len(ids) {
		t.Fatalf("All returned %d tables for %d IDs", len(tables), len(ids))
	}
	for i, id := range ids {
		if tables[i].ID != id {
			t.Errorf("All()[%d].ID = %s, want %s", i, tables[i].ID, id)
		}
		tbl, ok := ByID(strings.ToLower(id), Options{Quick: true})
		if !ok {
			t.Errorf("ByID(%q) not found", id)
			continue
		}
		if tbl.ID != id {
			t.Errorf("ByID(%q).ID = %s", id, tbl.ID)
		}
	}
}
