package bench

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// quick holds the serial quick suite, computed once per test binary run:
// every check that reads the quick tables shares it, and the Runner variants
// (parallel, repeated) are compared against it.
var quick struct {
	once    sync.Once
	results []Result
	err     error
}

// quickSuite returns the full quick suite as Runner{Parallel: 1} produces
// it. Callers must not modify the returned results.
func quickSuite(t *testing.T) []Result {
	t.Helper()
	quick.once.Do(func() {
		quick.results, quick.err = Runner{Opts: Options{Quick: true}, Parallel: 1}.Run(nil)
	})
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.results
}

// quickResults returns the named experiments' results from the shared quick
// suite, in the given order.
func quickResults(t *testing.T, ids ...string) []Result {
	t.Helper()
	var out []Result
	for _, id := range ids {
		found := false
		for _, r := range quickSuite(t) {
			if r.Table.ID == id {
				out = append(out, r)
				found = true
			}
		}
		if !found {
			t.Fatalf("experiment %s not in the quick suite", id)
		}
	}
	return out
}

// quickTable returns one table of the shared quick suite.
func quickTable(t *testing.T, id string) Table {
	t.Helper()
	return quickResults(t, id)[0].Table
}

// table returns experiment id's table at opts: from the shared suite when
// opts.Quick, otherwise from its own serial run.
func table(t *testing.T, opts Options, id string) Table {
	t.Helper()
	if opts.Quick {
		return quickTable(t, id)
	}
	results, err := Runner{Opts: opts, Parallel: 1}.Run([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	return results[0].Table
}

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
// full suite under an 8-worker pool must be byte-identical to the serial
// run. Run under -race in CI, this also shakes out any shared mutable state
// between cells.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	parallel, err := Runner{Opts: Options{Quick: true}, Parallel: 8}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sOut, pOut := formatAll(quickSuite(t)), formatAll(parallel); sOut != pOut {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, pOut)
	}
}

// TestRunnerParallelMatchesSerialAdversary pins the same byte-identity for
// the adversarial-environment experiments specifically (E10 churn, E11 loss,
// E12 scheduler): their cells build seeded schedules, lossy models, and
// retransmission wrappers, and none of that state may leak across workers.
func TestRunnerParallelMatchesSerialAdversary(t *testing.T) {
	ids := []string{"E10", "E11", "E12"}
	parallel, err := Runner{Opts: Options{Quick: true}, Parallel: 8}.Run(ids)
	if err != nil {
		t.Fatal(err)
	}
	if sOut, pOut := formatAll(quickResults(t, ids...)), formatAll(parallel); sOut != pOut {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, pOut)
	}
}

// TestRunnerPerfAccounting: cells and steps must be populated — the
// JSON report depends on them. E4 runs no kernel, so only its steps are 0.
func TestRunnerPerfAccounting(t *testing.T) {
	for _, r := range quickSuite(t) {
		if r.Cells == 0 || (r.Steps == 0) != (r.Table.ID == "E4") {
			t.Errorf("%s: cells=%d steps=%d, want cells > 0 and steps > 0 (0 for E4)", r.Table.ID, r.Cells, r.Steps)
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
	ids := []string{"E1", "E11"}
	once := quickResults(t, ids...)
	thriceRun := Runner{Opts: opts, Parallel: 2, Repeat: 3}
	thrice, err := thriceRun.Run(ids)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := formatAll(once), formatAll(thrice); a != b {
		t.Fatalf("repeat changed the tables:\n--- once ---\n%s\n--- median-of-3 ---\n%s", a, b)
	}
	rep := NewReport(thriceRun, thrice, 0)
	if rep.Schema != "repro-bench/6" || rep.Repeat != 3 {
		t.Errorf("report schema/repeat = %q/%d, want repro-bench/6 and 3", rep.Schema, rep.Repeat)
	}
	if rep := NewReport(Runner{Opts: opts, Parallel: 2}, once, 0); rep.Repeat != 1 {
		t.Errorf("repeat <= 1 must normalize to 1, got %d", rep.Repeat)
	}
	// The spread column: repeated runs must carry a non-negative spread per
	// experiment, single-shot runs exactly zero (nothing to spread over).
	for _, er := range rep.Experiments {
		if er.SpreadMS < 0 {
			t.Errorf("experiment %s: negative spread %v", er.ID, er.SpreadMS)
		}
	}
	for _, er := range NewReport(Runner{Opts: opts, Parallel: 2, Repeat: 1}, once, 0).Experiments {
		if er.SpreadMS != 0 {
			t.Errorf("experiment %s: single-shot run has spread %v, want 0", er.ID, er.SpreadMS)
		}
	}
}

// TestReportRecordsEffectiveWorkers: the report records the worker count the
// run actually used, so Parallel <= 0 reads as GOMAXPROCS, not as the raw
// field value.
func TestReportRecordsEffectiveWorkers(t *testing.T) {
	for _, parallel := range []int{0, -3} {
		if got := NewReport(Runner{Parallel: parallel}, nil, 0).Parallel; got != runtime.GOMAXPROCS(0) {
			t.Errorf("Parallel: %d reported as %d, want GOMAXPROCS = %d", parallel, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := NewReport(Runner{Parallel: 3}, nil, 0).Parallel; got != 3 {
		t.Errorf("Parallel: 3 reported as %d", got)
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

// TestRegistryCoherence: IDs and the suite a Runner produces must agree —
// both derive from the single registry.
func TestRegistryCoherence(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("IDs() = %v", ids)
	}
	results := quickSuite(t)
	if len(results) != len(ids) {
		t.Fatalf("the suite returned %d tables for %d IDs", len(results), len(ids))
	}
	for i, id := range ids {
		if results[i].Table.ID != id {
			t.Errorf("suite[%d].ID = %s, want %s", i, results[i].Table.ID, id)
		}
	}
}
