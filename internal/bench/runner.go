package bench

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Runner is the sweep engine and the only way to produce a table: it
// decomposes experiments into their independent cells (one seeded kernel per
// cell), fans the cells across a bounded worker pool, and reassembles each
// table in registry/cell order — so the output is byte-identical for every
// worker count, 1 included. Determinism comes for free from the cell
// contract (each cell is self-contained and seeded) plus index-addressed
// result slots; there is no cross-worker communication beyond the job feed.
type Runner struct {
	// Opts are the experiment options applied to every experiment.
	Opts Options
	// Parallel is the worker-pool size; values <= 0 default to GOMAXPROCS.
	Parallel int
	// Repeat runs every cell N times and records the MEDIAN execution time
	// (values <= 1 mean once). Cells are deterministic, so the rows are
	// identical across repetitions and only the timing varies — the median
	// tames the ±2× single-core scheduling noise that makes one-shot cell
	// times unreliable in JSON report comparisons.
	Repeat int
}

// workers is the worker-pool size Run actually uses (and the report
// records): Parallel, or GOMAXPROCS when Parallel <= 0.
func (r Runner) workers() int {
	if r.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Parallel
}

// repeats is the number of times Run executes each cell: Repeat, at least 1.
func (r Runner) repeats() int {
	return max(r.Repeat, 1)
}

// Result is one experiment's assembled table plus the perf accounting the
// JSON report records.
type Result struct {
	Table Table
	// Cells is the number of independent cells the experiment decomposed into.
	Cells int
	// Steps is the total kernel steps executed across the cells.
	Steps int64
	// CellTime is the summed execution time of the cells (CPU-seconds, not
	// wall time: under parallelism cells overlap, so the suite's wall time is
	// measured by the caller around Run). With Repeat > 1 each cell
	// contributes its median-of-N time.
	CellTime time.Duration
	// CellSpread is the summed per-cell time SPREAD (max − min across the
	// Repeat samples; zero when Repeat <= 1): the run-to-run variance the
	// medians in CellTime are taming, surfaced so a report reader can judge
	// how trustworthy each cell time is on a noisy single-core runner.
	CellSpread time.Duration
}

// Run executes the selected experiments (nil or empty = the full suite) and
// returns their results in the requested order. An unknown ID fails the
// whole run.
func (r Runner) Run(ids []string) ([]Result, error) {
	specs, err := specsFor(ids, r.Opts)
	if err != nil {
		return nil, err
	}

	type slot struct {
		out         cellOut
		dur, spread time.Duration
	}
	type job struct{ e, c int }
	slots := make([][]slot, len(specs))
	var jobs []job
	for i, s := range specs {
		slots[i] = make([]slot, len(s.cells))
		for c := range s.cells {
			jobs = append(jobs, job{i, c})
		}
	}

	feed := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				durs := make([]time.Duration, r.repeats())
				var out cellOut
				for k := range durs {
					start := time.Now()
					out = specs[j.e].cells[j.c]()
					durs[k] = time.Since(start)
				}
				slots[j.e][j.c] = slot{out: out, dur: median(durs), spread: spread(durs)}
			}
		}()
	}
	for _, j := range jobs {
		feed <- j
	}
	close(feed)
	wg.Wait()

	results := make([]Result, len(specs))
	for i, s := range specs {
		res := Result{Table: s.shell, Cells: len(s.cells)}
		for _, sl := range slots[i] {
			res.Table.Rows = append(res.Table.Rows, sl.out.rows...)
			res.Steps += sl.out.steps
			res.CellTime += sl.dur
			res.CellSpread += sl.spread
		}
		results[i] = res
	}
	return results, nil
}

// median returns the median duration (mean of the middle two for even
// counts). The input is sorted in place.
func median(durs []time.Duration) time.Duration {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	n := len(durs)
	if n%2 == 1 {
		return durs[n/2]
	}
	return (durs[n/2-1] + durs[n/2]) / 2
}

// spread returns max − min of the samples (zero for fewer than two): the
// per-cell "spread_ms" column of the JSON report. Call after median
// (which leaves durs sorted); a single sample has no spread to report.
func spread(durs []time.Duration) time.Duration {
	if len(durs) < 2 {
		return 0
	}
	return durs[len(durs)-1] - durs[0]
}
