package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"
)

// TestMain lets a test run the benchmark as a separate process, so that
// per-process figures such as peak RSS are measured as a caller of the command sees them.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_RUN_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metrics,
// names and units, to the ones this program runs and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not run by the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program runs %d", names, len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit})
		}
		w = append(w, want...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics in BENCHMARK.json %v, in the program %v", kind, g, w)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
}

var simWorkloads = map[string]simSpec{"sim-history": simHistory, "sim-hostile": simHostile}

func mustInputs(t *testing.T, spec simSpec, seed int64) *simInputs {
	t.Helper()
	in, err := genSimInputs(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSimDeterminism: two runs of one seed agree on every tick latency,
// step and message count, sequence and snapshot; another seed does not.
func TestSimDeterminism(t *testing.T) {
	for name, spec := range simWorkloads {
		t.Run(name, func(t *testing.T) {
			in := mustInputs(t, spec, 7)
			a, b := runSimRep(in, nil), runSimRep(in, nil)
			if !sameRun(a, b) {
				t.Fatal("two runs of one seed differ")
			}
			out := &outcome{correct: true}
			a.check(in, out)
			if !out.correct || a.obs.resolved != spec.writes {
				t.Fatalf("run incorrect (%v) or writes unresolved (%d of %d)", out.problems, a.obs.resolved, spec.writes)
			}
			c := runSimRep(mustInputs(t, spec, 8), nil)
			if reflect.DeepEqual(a.obs.tickLatencies(), c.obs.tickLatencies()) || a.steps == c.steps || a.snaps[0] == c.snaps[0] {
				t.Fatal("a different seed gave the same run")
			}
		})
	}
}

// TestTracedStackFidelity: the shimmed stack behaves exactly like
// core.ReplicaStackWith's on the same seed, every layer is charged, and the
// layers' self times sum to the traced run's wall time.
func TestTracedStackFidelity(t *testing.T) {
	for name, spec := range simWorkloads {
		t.Run(name, func(t *testing.T) {
			in := mustInputs(t, spec, 3)
			plain := runSimRep(in, nil)
			traced := runSimRep(in, newProfiler())
			if !sameRun(plain, traced) {
				t.Fatal("traced stack diverged from the plain stack")
			}
			var sum time.Duration
			for l, d := range traced.prof.self {
				sum += d
				if d <= 0 && layer(l) != layerEtobOther {
					t.Errorf("layer %d never charged", l)
				}
			}
			if gap := (sum - traced.wall).Seconds() / traced.wall.Seconds(); gap > 0.01 || gap < -0.01 {
				t.Fatalf("self times sum to %v, wall time %v", sum, traced.wall)
			}
		})
	}
}

func mustSim(t *testing.T, spec simSpec) map[string]float64 {
	t.Helper()
	out, err := runSim(spec, 5, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct {
		t.Fatalf("run incorrect: %v", out.problems)
	}
	return out.metrics
}

func mustLive(t *testing.T, spec liveSpec, window time.Duration, traced bool) map[string]float64 {
	t.Helper()
	out, err := runLive(spec, 5, window, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct || out.failed != 0 {
		t.Fatalf("run incorrect: %v, %d failed", out.problems, out.failed)
	}
	return out.metrics
}

// TestDoesItMeasure: each end-to-end metric moves with the input that should
// drive it.
func TestDoesItMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("live clusters and long histories")
	}
	t.Run("longer history lowers ops_per_s", func(t *testing.T) {
		short, long := simHistory, simHistory
		short.writes, long.writes = 300, 1200
		s, l := mustSim(t, short), mustSim(t, long)
		if l["ops_per_s"] >= s["ops_per_s"] {
			t.Errorf("ops_per_s %.0f at 1200 writes, %.0f at 300", l["ops_per_s"], s["ops_per_s"])
		}
	})
	t.Run("larger keyspace raises the live latencies and cpu_us_per_op", func(t *testing.T) {
		// The preload writes every key once, so a larger keyspace is also a
		// longer history: more state per read, longer promotes per tick.
		small, large := liveKV, liveKV
		small.keys, large.keys = 32, 512
		s, l := mustLive(t, small, 5*time.Second, false), mustLive(t, large, 5*time.Second, false)
		for _, m := range []string{"read_p50_ms", "visible_p50_ms", "cpu_us_per_op"} {
			t.Logf("%s %.3f with 512 keys, %.3f with 32", m, l[m], s[m])
			if l[m] <= s[m] {
				t.Errorf("%s %.3f with 512 keys, %.3f with 32", m, l[m], s[m])
			}
		}
	})
	t.Run("higher rate raises bench.visible_p90_ms", func(t *testing.T) {
		// visible_p50_ms is set by the 2 ms tick and barely moves with the
		// rate, and cpu_us_per_op falls with it: the idle cluster's heartbeats
		// and per-tick promotes are spread over more ops.
		slow, fast := liveKV, liveKV
		slow.rate, fast.rate = 20, 150
		s, f := mustLive(t, slow, 4*time.Second, true), mustLive(t, fast, 4*time.Second, true)
		const m = "bench.visible_p90_ms"
		t.Logf("%s %.3f at 150 ops/s, %.3f at 20 ops/s", m, f[m], s[m])
		if f[m] <= s[m] {
			t.Errorf("%s %.3f at 150 ops/s, %.3f at 20 ops/s", m, f[m], s[m])
		}
	})
}

// TestNoConstantMetric runs the benchmark twice per workload as separate
// processes: every end-to-end metric must read differently.
func TestNoConstantMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := runMain(t, name), runMain(t, name)
			for _, d := range endToEnd {
				if a.Metrics[d.name].Value == b.Metrics[d.name].Value {
					t.Errorf("%s reads %v on both runs", d.name, a.Metrics[d.name].Value)
				}
			}
		})
	}
}

func runMain(t *testing.T, workload string) jsonResult {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "11", "--seconds", "2", "--trace", "0")
	cmd.Env = append(os.Environ(), "PERFBENCH_RUN_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d", workload, res.Correct, res.Failed)
	}
	return res
}
