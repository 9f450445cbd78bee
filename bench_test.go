// Package repro's top-level benchmarks regenerate experiments E1..E8 of
// internal/bench (one benchmark per table, BenchmarkE1..BenchmarkE8) plus
// micro-benchmarks of the hot building blocks. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report, besides ns/op, the headline metric of
// each experiment as a custom unit (e.g. E1 reports etob_steps and
// paxos_steps).
package repro

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/causal"
	"repro/internal/cht"
	"repro/internal/ec"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

func reportCell(b *testing.B, t bench.Table, row, col int, unit string) {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return
	}
	if v, err := strconv.ParseFloat(t.Rows[row][col], 64); err == nil {
		b.ReportMetric(v, unit)
	}
}

// BenchmarkE1 regenerates the latency table (2 vs 3 communication steps).
func BenchmarkE1(b *testing.B) {
	var t bench.Table
	for i := 0; i < b.N; i++ {
		t = bench.E1Latency(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
	reportCell(b, t, 0, 1, "etob_steps")
	reportCell(b, t, 1, 1, "paxos_steps")
}

// BenchmarkE2 regenerates the any-environment EC table.
func BenchmarkE2(b *testing.B) {
	var t bench.Table
	for i := 0; i < b.N; i++ {
		t = bench.E2AnyEnvironment(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
	ok := 0.0
	for _, row := range t.Rows {
		if row[3] == "yes" {
			ok++
		}
	}
	b.ReportMetric(ok/float64(len(t.Rows)), "spec_ok_ratio")
}

// BenchmarkE3 regenerates the equivalence-transformation table.
func BenchmarkE3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E3Equivalence(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
}

// BenchmarkE4 regenerates the CHT extraction table.
func BenchmarkE4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E4Extraction(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
}

// BenchmarkE5 regenerates the Σ-gap table.
func BenchmarkE5(b *testing.B) {
	var t bench.Table
	for i := 0; i < b.N; i++ {
		t = bench.E5SigmaGap(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
	reportCell(b, t, 0, 3, "etob_ops")
	reportCell(b, t, 1, 3, "paxos_majority_ops")
}

// BenchmarkE6 regenerates the stable-Ω strong-TOB table.
func BenchmarkE6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E6StableOmega(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
}

// BenchmarkE7 regenerates the causal-order-under-split table.
func BenchmarkE7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E7CausalOrder(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
}

// BenchmarkE8 regenerates the EIC table.
func BenchmarkE8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E8EIC(bench.Options{Quick: true, Seed: int64(i + 1)})
	}
}

// --- Micro-benchmarks of the hot building blocks ---

// BenchmarkETOBThroughput measures simulated broadcasts/sec through the full
// Algorithm 5 stack on the deterministic kernel.
func BenchmarkETOBThroughput(b *testing.B) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(3)
		k := sim.New(fp, det, etob.Factory(), sim.Options{Seed: int64(i)})
		k.SetObserver(rec)
		for m := 0; m < 20; m++ {
			k.ScheduleInput(model.ProcID(m%3+1), model.Time(10+5*m), model.BroadcastInput{ID: fmt.Sprintf("m%d", m)})
		}
		k.Run(4000)
	}
}

// BenchmarkECInstances measures Algorithm 4 instance throughput.
func BenchmarkECInstances(b *testing.B) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	driver := func(p model.ProcID, inst int) (string, bool) { return "v", inst <= 50 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.New(fp, det, ec.DrivenFactory(driver), sim.Options{Seed: int64(i)})
		k.Run(8000)
	}
}

// BenchmarkCausalExtend measures UpdatePromote: the deterministic
// topological extension (ties broken by ID so runs are reproducible), the
// hot path of Algorithm 5.
func BenchmarkCausalExtend(b *testing.B) {
	g := causal.New()
	var prefix []string
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("m%03d", i)
		var deps []string
		if i > 0 {
			deps = []string{fmt.Sprintf("m%03d", i-1)}
		}
		g.Add(id, deps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := g.Extend(prefix)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 200 {
			b.Fatal("bad extend")
		}
	}
}

// BenchmarkCHTTreeBuild measures simulation-tree exploration (the reduction's
// dominant cost) on a 2-process, 2-instance DAG.
func BenchmarkCHTTreeBuild(b *testing.B) {
	fp := model.NewFailurePattern(2)
	det := fd.NewOmegaEventual(fp, 1, 35)
	g := cht.BuildDAG(fp, det, cht.BuildOptions{SamplesPerProcess: 4, Seed: 7})
	alg := cht.NewEC4(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := cht.NewExplorer(alg, 2, g, nil, 0)
		if err := ex.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSteps measures raw kernel event throughput (ticks only).
func BenchmarkKernelSteps(b *testing.B) {
	fp := model.NewFailurePattern(4)
	det := fd.NewOmegaStable(fp, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.New(fp, det, etob.Factory(), sim.Options{Seed: int64(i), TickInterval: 1})
		k.Run(2000)
	}
}
