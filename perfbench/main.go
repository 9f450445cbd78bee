// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points of the replicated service and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage:
//
//	perfbench --workload <sim-history|sim-hostile|live-kv> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the metrics are the end-to-end ones (measured with no
// timing shims in the stack); with --trace 1 they are the per-layer ones,
// taken from a separate traced run that also repeats an untraced run for the
// counters and the tracing overhead. README.md lists every metric, the layer
// it belongs to and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the service sees. Every workload
// reports all of them; README.md gives each one's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"rss_mb_peak", "MB"},
	{"visible_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise (the kernel under live-kv, the TCP runtime under the sims) reports
// 0 for its metrics.
var perLayer = []metricDef{
	{"sim.steps_per_op", "count"},
	{"sim.msgs_per_op", "count"},
	{"sim.self_us_per_op", "us"},
	{"retransmit.self_us_per_op", "us"},
	{"retransmit.resends_per_op", "count"},
	{"retransmit.duplicates_per_op", "count"},
	{"etob.update_us_per_op", "us"},
	{"etob.promote_us_per_op", "us"},
	{"etob.tick_us_per_op", "us"},
	{"etob.input_us_per_op", "us"},
	{"etob.update_ids_per_op", "count"},
	{"etob.promote_ids_per_op", "count"},
	{"etob.visible_p50_ticks", "ticks"},
	{"etob.visible_p90_ticks", "ticks"},
	{"etob.replicate_p50_ms", "ms"},
	{"etob.replicate_p90_ms", "ms"},
	{"smr.reconcile_us_per_op", "us"},
	{"smr.apply_us_per_op", "us"},
	{"smr.applies_per_op", "ratio"},
	{"smr.rebuilds", "count"},
	{"smr.snapshot_ms", "ms"},
	{"runtime.loop_wait_p50_ms", "ms"},
	{"runtime.loop_wait_p90_ms", "ms"},
	{"runtime.frames_per_op", "count"},
	{"runtime.coalesced_frac", "ratio"},
	{"runtime.inbox_dropped", "count"},
	{"node.submit_p50_ms", "ms"},
	{"gen.late_p90_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.visible_p90_ms", "ms"},
	{"bench.read_p90_ms", "ms"},
}

// outcome is one run's verdict and measurements, keyed by metric name.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	problems  []string // why correct is false, for standard error
	notes     []string // failed operations, for standard error
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// note records why an operation failed; the first few go to standard error.
func (o *outcome) note(format string, args ...any) {
	if len(o.notes) < 10 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(seed int64, budget time.Duration, traced bool) (*outcome, error){
	"sim-history": func(seed int64, budget time.Duration, traced bool) (*outcome, error) {
		return runSim(simHistory, seed, budget, traced)
	},
	"sim-hostile": func(seed int64, budget time.Duration, traced bool) (*outcome, error) {
		return runSim(simHostile, seed, budget, traced)
	},
	"live-kv": func(seed int64, budget time.Duration, traced bool) (*outcome, error) {
		return runLive(liveKV, seed, budget, traced)
	},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sim-history, sim-hostile or live-kv")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sim-history|sim-hostile|live-kv, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	traced := *traceFlag == 1
	out, err := drive(*seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: incorrect output: %s\n", *workload, p)
	}
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *workload, n)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res, err := encode(out, defs, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintln(stdout, string(res))
	return 0
}

// encode renders the result line. Every end-to-end metric must have been
// measured; a per-layer metric the workload does not exercise reads 0.
func encode(out *outcome, defs []metricDef, traced bool) ([]byte, error) {
	res := jsonResult{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}
