package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Report is the machine-readable record of a bench run, written by
// cmd/bench -json.
//
// Schema "repro-bench/6". "scaling" is the optional WORKER-count sweep
// (wall-time parallelism); "scaling_n" is the optional En sweep, which scales
// the simulated cluster itself. Older reports under the same label may also
// carry optional "micro", "latency" and "metrics" sections, which a reader
// ignores:
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
//	    {"workers": 8, "wall_ms": 300.0,  "speedup": 6.7}]    // vs the first entry
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

// NewReport assembles a Report from the results run produced and the
// measured wall time of that run. It records the worker count and repeat
// count run actually used, not the raw field values (Parallel <= 0 means
// GOMAXPROCS, Repeat <= 1 means once).
func NewReport(run Runner, results []Result, wall time.Duration) *Report {
	r := &Report{
		Schema:     "repro-bench/6",
		Seed:       run.Opts.seed(),
		Quick:      run.Opts.Quick,
		Parallel:   run.workers(),
		Repeat:     run.repeats(),
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
