package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Shard selects a deterministic 1/Count slice of the suite's cells for
// multi-machine sweeps: the cell with global index g (counting across the
// selected experiments in registry/cell order) belongs to shard Index iff
// g % Count == Index. Count <= 1 means no sharding. Because the partition is
// a pure function of the cell order, running every shard anywhere and
// concatenating their per-cell rows (Result.ByCell) reassembles the exact
// serial table.
type Shard struct {
	Index, Count int
}

// enabled reports whether sharding is active.
func (s Shard) enabled() bool { return s.Count > 1 }

// owns reports whether this shard runs global cell g.
func (s Shard) owns(g int) bool { return !s.enabled() || g%s.Count == s.Index }

// Runner is the parallel sweep engine: it decomposes experiments into their
// independent cells (one seeded kernel per cell), fans the cells across a
// bounded worker pool, and reassembles each table in registry/cell order —
// so the output is byte-identical to the serial path no matter how the
// scheduler interleaves workers. Determinism comes for free from the cell
// contract (each cell is self-contained and seeded) plus index-addressed
// result slots; there is no cross-worker communication beyond the job feed.
type Runner struct {
	// Opts are the experiment options applied to every experiment.
	Opts Options
	// Parallel is the worker-pool size: 1 runs the cells serially on the
	// calling goroutine (the reference path), larger values fan out across
	// that many workers, and values <= 0 default to GOMAXPROCS.
	Parallel int
	// CellTimeout, when positive, bounds each cell's execution: a cell that
	// exceeds it is abandoned (its goroutine keeps running detached — the
	// deterministic kernel has no preemption points — but the worker moves
	// on) and contributes a single "TIMEOUT: ..." row, so one divergent run
	// cannot hang the whole table.
	CellTimeout time.Duration
	// Shard restricts the run to a deterministic subset of cells for
	// multi-machine sweeps; cells owned by other shards are skipped and
	// their ByCell entries stay nil.
	Shard Shard
	// Repeat runs every cell N times and records the MEDIAN execution time
	// (values <= 1 mean once). Cells are deterministic, so the rows are
	// identical across repetitions and only the timing varies — the median
	// tames the ±2× single-core scheduling noise that makes one-shot cell
	// times unreliable in JSON report comparisons.
	Repeat int
}

// Result is one experiment's assembled table plus the perf accounting the
// JSON report records.
type Result struct {
	Table Table
	// Cells is the number of independent cells the experiment decomposed into
	// (including cells skipped by sharding).
	Cells int
	// Steps is the total kernel steps executed across the cells that ran.
	Steps int64
	// CellTime is the summed execution time of the cells (CPU-seconds, not
	// wall time: under parallelism cells overlap, so the suite's wall time is
	// measured by the caller around Run). With Repeat > 1 each cell
	// contributes its median-of-N time.
	CellTime time.Duration
	// CellSpread is the summed per-cell time SPREAD (max − min across the
	// Repeat samples; zero when Repeat <= 1 or a cell was sampled once): the
	// run-to-run variance the medians in CellTime are taming, surfaced so a
	// report reader can judge how trustworthy each cell time is on a
	// noisy single-core runner.
	CellSpread time.Duration
	// ByCell holds each cell's rows in cell order: nil for cells this shard
	// skipped, so shards reassemble into the serial table by picking every
	// cell's rows from the shard that owns it.
	ByCell [][][]string
	// TimedOut counts cells that hit CellTimeout.
	TimedOut int
}

// Run executes the selected experiments (nil or empty = the full suite) and
// returns their results in suite order. An unknown ID or an invalid shard
// fails the whole run.
func (r Runner) Run(ids []string) ([]Result, error) {
	if r.Shard.enabled() && (r.Shard.Index < 0 || r.Shard.Index >= r.Shard.Count) {
		return nil, fmt.Errorf("bench: shard index %d out of range [0, %d)", r.Shard.Index, r.Shard.Count)
	}
	specs, err := specsFor(ids, r.Opts)
	if err != nil {
		return nil, err
	}
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type slot struct {
		out      cellOut
		dur      time.Duration
		spread   time.Duration
		ran      bool
		timedOut bool
	}
	cells := make([][]slot, len(specs))
	type job struct{ e, c int }
	var jobs []job
	global := 0
	for i, s := range specs {
		cells[i] = make([]slot, len(s.cells))
		for c := range s.cells {
			if r.Shard.owns(global) {
				jobs = append(jobs, job{i, c})
			}
			global++
		}
	}

	repeat := r.Repeat
	if repeat < 1 {
		repeat = 1
	}
	runJob := func(j job) {
		// Repetitions only steady the timing: the first SUCCESSFUL run's rows
		// are the cell's rows, and a repetition that trips CellTimeout (the
		// wall-clock noise -repeat exists to tame can push a borderline cell
		// over the bound) neither overwrites them nor skews the median — it
		// just ends the sampling early. Only a timeout with no successful run
		// at all marks the cell TIMEOUT.
		var durs []time.Duration
		var out cellOut
		var haveOut, timedOut bool
		for rep := 0; rep < repeat; rep++ {
			start := time.Now()
			o, to := runCell(specs[j.e].cells[j.c], r.CellTimeout)
			if to {
				if !haveOut {
					out, timedOut = o, true
					durs = append(durs, time.Since(start))
				}
				break
			}
			if !haveOut {
				out, haveOut = o, true
			}
			durs = append(durs, time.Since(start))
		}
		cells[j.e][j.c] = slot{out: out, dur: median(durs), spread: spread(durs), ran: true, timedOut: timedOut}
	}
	if workers <= 1 {
		for _, j := range jobs {
			runJob(j)
		}
	} else {
		feed := make(chan job)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range feed {
					runJob(j)
				}
			}()
		}
		for _, j := range jobs {
			feed <- j
		}
		close(feed)
		wg.Wait()
	}

	results := make([]Result, len(specs))
	for i, s := range specs {
		res := Result{Table: s.shell, Cells: len(s.cells), ByCell: make([][][]string, len(s.cells))}
		for c, sl := range cells[i] {
			if !sl.ran {
				continue
			}
			res.ByCell[c] = sl.out.rows
			res.Table.Rows = append(res.Table.Rows, sl.out.rows...)
			res.Steps += sl.out.steps
			res.CellTime += sl.dur
			res.CellSpread += sl.spread
			if sl.timedOut {
				res.TimedOut++
			}
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

// runCell executes one cell, bounded by timeout when positive. A timed-out
// cell is replaced by a marker row; its goroutine is abandoned (Go cannot
// kill it), which isolates the table from a divergent run at the cost of the
// runaway goroutine's CPU until process exit.
func runCell(c cell, timeout time.Duration) (cellOut, bool) {
	if timeout <= 0 {
		return c(), false
	}
	done := make(chan cellOut, 1)
	go func() { done <- c() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case out := <-done:
		return out, false
	case <-timer.C:
		return cellOut{rows: [][]string{{fmt.Sprintf("TIMEOUT: cell abandoned after %v", timeout)}}}, true
	}
}
