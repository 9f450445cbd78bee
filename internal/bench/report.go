package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Report is the machine-readable record of a bench run, written by cmd/bench
// as BENCH_<n>.json to track the perf trajectory across PRs.
//
// Schema ("repro-bench/6" — rev 6 adds the optional "scaling_n" section: the
// En cluster-size sweep, one row per n, recording kernel steps/sec and the
// measured update envelopes and payload bytes per process of the all-to-all
// broadcast; absent when the sweep was not requested. Reports written while
// ETOB still had a gossip mode carry two rows per n, told apart by a "mode"
// field, plus the analytic per-sender "send_fanout". Note "scaling" (rev 2)
// remains the WORKER-count sweep — wall-time parallelism — while
// "scaling_n" scales the simulated cluster itself.
//
// Rev 5 adds the optional "metrics" section: the
// observability plane's overhead audit, comparing each experiment's median
// cell time with the metrics registry off and on (same seeds, same repeat);
// "within_spread" reports whether the delta sits inside the run's own
// repeat-to-repeat spread plus a 0.5ms noise floor — the registry's
// zero-hot-path-cost contract, measured. Absent when the comparison was not
// requested. Rev 4 added the optional "latency" section: the
// open-loop load sweep (internal/loadgen) crossing network presets with
// broadcast-batching configurations, recording p50/p99/p999 visibility and
// order-stability latency in kernel ticks plus messages sent and allocs/op
// per cell; absent when the sweep was not requested, and the rest of the
// report reads exactly like schema 3. Rev 3 added "spread_ms": the summed
// per-cell time spread (max − min across the -repeat samples), so a reader
// can judge how noisy the medians in "cell_ms" are; it is 0 when "repeat" is
// 1. Rev 2 added "repeat": per-cell times are the median of that many
// repetitions, taming single-core scheduling noise):
//
//	{
//	  "schema":     "repro-bench/6",
//	  "seed":       42,            // base experiment seed
//	  "quick":      false,         // reduced workloads?
//	  "parallel":   8,             // worker-pool size of the recorded run
//	  "repeat":     5,             // each cell timed as median-of-5
//	  "gomaxprocs": 8,             // cores visible to the scheduler
//	  "wall_ms":    1234.5,        // wall time of the full table run
//	  "experiments": [             // per experiment, in suite order
//	    {"id": "E1", "cells": 3, "steps": 123456,
//	     "cell_ms": 456.7,         // summed median cell time (CPU-ms, overlaps under parallelism)
//	     "spread_ms": 12.3,        // summed per-cell max−min across the repeats
//	     "steps_per_sec": 270000}, // kernel steps / cell time
//	    ...],
//	  "scaling_n": [               // optional -scalen cluster-size sweep (see ScaleN)
//	    {"n": 64, "ops": 64, "delivered_pct": 100,
//	     "steps": 123456, "wall_ms": 80.0, "steps_per_sec": 1500000,
//	     "envelopes": 4096, "envelopes_per_op": 64,
//	     "bytes": 400000, "bytes_per_proc": 6250.0}, ...],
//	  "scaling": [                 // optional -scaling sweep, one point per worker
//	                               // count; each point reruns exactly the experiment
//	                               // selection listed in "experiments" above
//	    {"workers": 1, "wall_ms": 2000.0, "speedup": 1.0},
//	    {"workers": 8, "wall_ms": 300.0,  "speedup": 6.7}],   // vs the first entry
//	  "micro": [                   // kernel microbenchmarks (see Microbenchmarks)
//	    {"name": "kernel/uniform", "iters": 30,
//	     "ns_per_op": 590000, "allocs_per_op": 172}, ...],
//	  "latency": [                 // optional open-loop load sweep (see LatencySweep)
//	    {"preset": "uniform", "batch": "k=8", "ops": 20000, "resolved": 20000,
//	     "visible_p50": 33, "visible_p99": 49, "visible_p999": 57,
//	     "stable_p50": 33, "stable_p99": 49, "stable_p999": 57,
//	     "messages_sent": 123456, "ops_per_sec": 250000,
//	     "steps_per_sec": 800000, "allocs_per_op": 90, "wall_ms": 80.0}, ...],
//	  "metrics": [                 // optional metrics-on/off overhead audit (MetricsCompare)
//	    {"id": "E1", "off_ms": 456.7, "on_ms": 458.1, "delta_ms": 1.4,
//	     "spread_ms": 12.3, "within_spread": true}, ...]
//	}
type Report struct {
	Schema      string           `json:"schema"`
	Seed        int64            `json:"seed"`
	Quick       bool             `json:"quick"`
	Parallel    int              `json:"parallel"`
	Repeat      int              `json:"repeat"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	WallMS      float64          `json:"wall_ms"`
	Experiments []ExpReport      `json:"experiments"`
	ScalingN    []ScalingNResult `json:"scaling_n,omitempty"`
	Scaling     []ScalingPoint   `json:"scaling,omitempty"`
	Micro       []MicroResult    `json:"micro,omitempty"`
	Latency     []LatencyResult  `json:"latency,omitempty"`
	Metrics     []MetricsResult  `json:"metrics,omitempty"`
}

// ExpReport is one experiment's perf accounting inside a Report.
type ExpReport struct {
	ID          string  `json:"id"`
	Cells       int     `json:"cells"`
	Steps       int64   `json:"steps"`
	CellMS      float64 `json:"cell_ms"`
	SpreadMS    float64 `json:"spread_ms"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// ScalingPoint is one worker-count measurement of the full suite.
type ScalingPoint struct {
	Workers int     `json:"workers"`
	WallMS  float64 `json:"wall_ms"`
	Speedup float64 `json:"speedup"`
}

// NewReport assembles a Report from a Runner's results and the measured wall
// time of the run. repeat is the Runner.Repeat the results were timed with
// (values <= 1 normalize to 1).
func NewReport(opts Options, parallel, repeat int, results []Result, wall time.Duration) *Report {
	if repeat < 1 {
		repeat = 1
	}
	r := &Report{
		Schema:     "repro-bench/6",
		Seed:       opts.seed(),
		Quick:      opts.Quick,
		Parallel:   parallel,
		Repeat:     repeat,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WallMS:     ms(wall),
	}
	for _, res := range results {
		er := ExpReport{
			ID:       res.Table.ID,
			Cells:    res.Cells,
			Steps:    res.Steps,
			CellMS:   ms(res.CellTime),
			SpreadMS: ms(res.CellSpread),
		}
		if res.CellTime > 0 {
			er.StepsPerSec = float64(res.Steps) / res.CellTime.Seconds()
		}
		r.Experiments = append(r.Experiments, er)
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// AddScaling records a worker-count sweep; speedups are computed against the
// first point's wall time (conventionally workers=1).
func (r *Report) AddScaling(points []ScalingPoint) {
	if len(points) > 0 {
		base := points[0].WallMS
		for i := range points {
			if points[i].WallMS > 0 {
				points[i].Speedup = base / points[i].WallMS
			}
		}
	}
	r.Scaling = points
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
