package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTables pins table output byte-for-byte against committed
// snapshots (testdata/golden_E*.txt, generated with `bench -exp eN
// -parallel 1` at the default seed): E3/E4/E8 against their pre-CHT-overhaul
// snapshots (those changes were pure performance work), and E13 against the
// snapshot committed with the leader-aware adversary, so the measured
// protocol-aware-vs-blind gap cannot drift silently.
func TestGoldenTables(t *testing.T) {
	opts := Options{Seed: 42}
	for _, id := range []string{"E3", "E4", "E8", "E13"} {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden_"+id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := table(t, opts, id).Format(); got != string(want) {
				t.Errorf("%s output drifted from golden snapshot.\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}

// TestGoldenQuickSuite pins the ENTIRE pre-existing suite — every E1–E12
// quick table, exactly as `bench -quick -parallel 1` prints it — against a
// snapshot captured before the protocol-aware adversary landed. The new
// leadership hook, the scheduler refactor, the retransmission watermark, and
// the composition layer are all additive: not one cell of the existing
// experiments may move.
func TestGoldenQuickSuite(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_quick_suite.txt"))
	if err != nil {
		t.Fatal(err)
	}
	results := quickResults(t, "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12")
	if got := formatAll(results); got != string(want) {
		t.Errorf("E1–E12 quick suite drifted from the pre-adversary snapshot.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenQuickSuiteE13E14 completes the E1–E14 pin: E13/E14 quick tables
// against their committed snapshot. Changes to dissemination code or to the
// En scaling sweep may not move one cell of any existing experiment.
func TestGoldenQuickSuiteE13E14(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_quick_E13_E14.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := formatAll(quickResults(t, "E13", "E14")); got != string(want) {
		t.Errorf("E13–E14 quick tables drifted from the committed snapshot.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
