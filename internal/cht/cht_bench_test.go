package cht

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
)

// benchSetup builds the standard 3-process eventual-Ω scenario.
func benchSetup() (*model.FailurePattern, fd.Detector) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaEventual(fp, 2, 35)
	return fp, det
}

// BenchmarkBuildDAG measures the communication-task builder (direct
// detector sampling, map-free predecessor assembly).
func BenchmarkBuildDAG(b *testing.B) {
	fp, det := benchSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 12, Seed: int64(i + 1)})
	}
}

// BenchmarkTreeGrowth measures incremental tree growth: one cached tree
// extended across every prefix of the DAG, as the lagged emulation views
// consume it.
func BenchmarkTreeGrowth(b *testing.B) {
	fp, det := benchSetup()
	g := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 3, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := NewTreeCache(NewEC4(1), fp.N(), nil, 0)
		for m := 1; m <= g.Len(); m++ {
			if _, err := cache.View(g, m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTreeFresh is the non-incremental baseline for BenchmarkTreeGrowth:
// a fresh exploration per prefix, the pre-overhaul behavior.
func BenchmarkTreeFresh(b *testing.B) {
	fp, det := benchSetup()
	g := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 3, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 1; m <= g.Len(); m++ {
			ex := NewExplorer(NewEC4(1), fp.N(), g.Prefix(m), nil, 0)
			if err := ex.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkValencyTagging measures per-view k-tag recomputation on a settled
// tree (no growth, reach propagation only).
func BenchmarkValencyTagging(b *testing.B) {
	fp, det := benchSetup()
	g := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 3, Seed: 1})
	cache := NewTreeCache(NewEC4(1), fp.N(), nil, 0)
	if _, err := cache.View(g, g.Len()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.View(g, g.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulateOmega measures the full 3-round incremental emulation (the
// E4 cell shape).
func BenchmarkEmulateOmega(b *testing.B) {
	fp, det := benchSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EmulateOmega(NewEC4(1), fp, det, EmulateOptions{
			Rounds: 3, BaseSamples: 2, ViewLag: 1,
			Build: BuildOptions{Seed: int64(i + 1)},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractEC measures one-shot §4 extraction (build + tag + gadget
// search) on a fresh engine.
func BenchmarkExtractEC(b *testing.B) {
	fp, det := benchSetup()
	g := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 3, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractEC(NewEC4(1), fp.N(), g, 0); err != nil {
			b.Fatal(err)
		}
	}
}
