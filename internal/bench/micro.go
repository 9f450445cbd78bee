package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cht"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// MicroResult is one kernel microbenchmark measurement, recorded in the
// BENCH_*.json report so the perf trajectory of the hot path is tracked
// per PR alongside the experiment wall times.
type MicroResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// pingAuto is a minimal protocol that keeps the kernel's hot path busy:
// every process broadcasts on a fraction of its ticks and acks what it
// receives, so the run exercises the event heap, the per-step detector
// query, and the broadcast path without protocol-level cost dominating.
type pingAuto struct {
	self  model.ProcID
	ticks int
}

func (a *pingAuto) Init(model.Context) {}

func (a *pingAuto) Tick(ctx model.Context) {
	a.ticks++
	if a.ticks%4 == 1 {
		ctx.Broadcast("ping")
	}
}

func (a *pingAuto) Recv(ctx model.Context, from model.ProcID, payload any) {
	if payload == "ping" && from != a.self {
		ctx.Send(from, "ack")
	}
}

func (a *pingAuto) Input(ctx model.Context, _ any) { ctx.Broadcast("ping") }

func pingFactory() model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return &pingAuto{self: p} }
}

// microKernels defines the kernel microbenchmarks mirrored from
// internal/sim's testing benchmarks (kernel_bench_test.go); they are
// restated here because cmd/bench cannot import test files. One op = one
// complete 8-process run to t=5000.
func microKernels() []struct {
	name string
	run  func(seed int64)
} {
	run := func(opts sim.Options, det func(fp *model.FailurePattern) fd.Detector) {
		fp := model.NewFailurePattern(8)
		k := sim.New(fp, det(fp), pingFactory(), opts)
		k.ScheduleInput(1, 60, "go")
		k.Run(5000)
	}
	omega := func(fp *model.FailurePattern) fd.Detector { return fd.NewOmegaStable(fp, 1) }
	return []struct {
		name string
		run  func(seed int64)
	}{
		{"kernel/uniform", func(seed int64) {
			run(sim.Options{Seed: seed, MinDelay: 3, MaxDelay: 30}, omega)
		}},
		{"kernel/partitioned", func(seed int64) {
			run(sim.Options{Seed: seed, Network: func() sim.NetworkModel {
				return &sim.Partitioned{LeftSize: 4, FirstAt: 500, Duration: 400, Interval: 1500}
			}}, omega)
		}},
		{"kernel/jittery", func(seed int64) {
			run(sim.Options{Seed: seed, Network: func() sim.NetworkModel {
				return sim.NewJittery(20)
			}}, omega)
		}},
		{"kernel/omega-sigma-fd", func(seed int64) {
			run(sim.Options{Seed: seed, MinDelay: 3, MaxDelay: 30},
				func(fp *model.FailurePattern) fd.Detector {
					return fd.NewOmegaSigma(fd.NewOmegaStable(fp, 1), fd.NewSigma(fp, 0))
				})
		}},
	}
}

// bcastAuto broadcasts once per input and is otherwise inert; rotorAuto
// unicasts to a rotating peer on every tick. Both mirror the big-n automata
// in internal/sim/kernel_bench_test.go, restated because cmd/bench cannot
// import test files.
type bcastAuto struct{}

func (bcastAuto) Init(model.Context)                    {}
func (bcastAuto) Tick(model.Context)                    {}
func (bcastAuto) Recv(model.Context, model.ProcID, any) {}
func (bcastAuto) Input(ctx model.Context, _ any)        { ctx.Broadcast("payload") }

type rotorAuto struct {
	self  model.ProcID
	n     int
	ticks int
}

func (a *rotorAuto) Init(model.Context) {}
func (a *rotorAuto) Tick(ctx model.Context) {
	a.ticks++
	peer := model.ProcID((int(a.self)-1+a.ticks)%a.n + 1)
	if peer != a.self {
		ctx.Send(peer, "x")
	}
}
func (a *rotorAuto) Recv(model.Context, model.ProcID, any) {}
func (a *rotorAuto) Input(model.Context, any)              {}

// microScale defines the big-n microbenchmarks parameterized over cluster
// size — broadcast fan-out, heap churn, and the fd.Cached hit path — the
// axes the big-n scaling work optimizes. They mirror BenchmarkKernelBroadcastN,
// BenchmarkKernelHeapChurnN, and BenchmarkCachedHitPathN in
// internal/sim/kernel_bench_test.go. quick drops the n=256 points so CI
// smoke jobs stay fast; full runs record all three sizes.
func microScale(quick bool) []struct {
	name string
	run  func(seed int64)
} {
	ns := []int{5, 64, 256}
	if quick {
		ns = []int{5, 64}
	}
	var out []struct {
		name string
		run  func(seed int64)
	}
	for _, n := range ns {
		n := n
		out = append(out, []struct {
			name string
			run  func(seed int64)
		}{
			{fmt.Sprintf("kernel/broadcast/n=%d", n), func(seed int64) {
				fp := model.NewFailurePattern(n)
				k := sim.New(fp, fd.NewOmegaStable(fp, 1), func(model.ProcID, int) model.Automaton {
					return bcastAuto{}
				}, sim.Options{Seed: seed, MinDelay: 3, MaxDelay: 30})
				for j := 0; j < 32; j++ {
					k.ScheduleInput(model.ProcID(j%n+1), model.Time(20+j*10), "go")
				}
				k.Run(400)
			}},
			{fmt.Sprintf("kernel/heap-churn/n=%d", n), func(seed int64) {
				fp := model.NewFailurePattern(n)
				k := sim.New(fp, fd.NewOmegaStable(fp, 1), func(p model.ProcID, n int) model.Automaton {
					return &rotorAuto{self: p, n: n}
				}, sim.Options{Seed: seed, Network: func() sim.NetworkModel { return sim.NewJittery(20) }})
				k.Run(500)
			}},
			{fmt.Sprintf("fd/cached-hit/n=%d", n), func(seed int64) {
				fp := model.NewFailurePattern(n)
				det := fd.NewCached(fd.NewOmegaSigma(fd.NewOmegaStable(fp, 1), fd.NewSigma(fp, 0)))
				for t := model.Time(0); t < 2560; t += 5 {
					for _, p := range model.Procs(n) {
						det.Value(p, t)
					}
				}
			}},
		}...)
	}
	return out
}

// microCHT defines the CHT-reduction microbenchmarks tracking the interned
// engine's hot paths: DAG construction (batched detector sampling), the
// incremental tree growth over monotone DAG prefixes, and the per-view
// valency tagging (k-tag recomputation on a settled tree). They mirror the
// Go benchmarks in internal/cht (cht_bench_test.go), restated here because
// cmd/bench cannot import test files.
func microCHT() []struct {
	name string
	run  func(seed int64)
} {
	setup := func(seed int64) (*model.FailurePattern, fd.Detector) {
		fp := model.NewFailurePattern(3)
		det := fd.NewOmegaEventual(fp, 2, 35)
		return fp, det
	}
	return []struct {
		name string
		run  func(seed int64)
	}{
		{"cht/build-dag", func(seed int64) {
			fp, det := setup(seed)
			cht.BuildDAG(fp, det, cht.BuildOptions{SamplesPerProcess: 12, Seed: seed})
		}},
		{"cht/tree-growth", func(seed int64) {
			// One op grows a single cached tree across every prefix of the
			// DAG, the way EmulateOmega's lagged views consume it.
			fp, det := setup(seed)
			g := cht.BuildDAG(fp, det, cht.BuildOptions{SamplesPerProcess: 3, Seed: seed})
			cache := cht.NewTreeCache(cht.NewEC4(1), fp.N(), nil, 0)
			for m := 1; m <= g.Len(); m++ {
				if _, err := cache.View(g, m); err != nil {
					panic(err)
				}
			}
		}},
		{"cht/valency-tagging", func() func(seed int64) {
			// The tree is grown once at definition time; each op re-views the
			// settled cache 8 times, which re-runs only the k-tag (reach)
			// propagation over the existing nodes.
			fp, det := setup(0)
			g := cht.BuildDAG(fp, det, cht.BuildOptions{SamplesPerProcess: 3, Seed: 1})
			cache := cht.NewTreeCache(cht.NewEC4(1), fp.N(), nil, 0)
			if _, err := cache.View(g, g.Len()); err != nil {
				panic(err)
			}
			return func(int64) {
				for i := 0; i < 8; i++ {
					if _, err := cache.View(g, g.Len()); err != nil {
						panic(err)
					}
				}
			}
		}()},
		{"cht/emulate-omega", func(seed int64) {
			// One op is a full 3-round incremental emulation (E4's shape).
			fp, det := setup(seed)
			if _, err := cht.EmulateOmega(cht.NewEC4(1), fp, det, cht.EmulateOptions{
				Rounds: 3, BaseSamples: 2, ViewLag: 1,
				Build: cht.BuildOptions{Seed: seed},
			}); err != nil {
				panic(err)
			}
		}},
	}
}

// Microbenchmarks measures the kernel and CHT microbenchmarks and returns
// their results. One warm-up run precedes each measurement; quick shrinks the
// iteration count for CI smoke jobs. Iteration counts are fixed, never
// time-calibrated, so two runs of identical code measure identical work —
// and the quick count stays high enough (10, matching the CI bench steps'
// -benchtime=10x) that a single descheduling blip cannot double ns/op the
// way it could at 3 iterations.
func Microbenchmarks(quick bool) []MicroResult {
	iters := 30
	if quick {
		iters = 10
	}
	benches := microKernels()
	benches = append(benches, microCHT()...)
	benches = append(benches, microScale(quick)...)
	var out []MicroResult
	for _, m := range benches {
		m.run(0) // warm-up
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		for i := 0; i < iters; i++ {
			m.run(int64(i + 1))
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		out = append(out, MicroResult{
			Name:        m.name,
			Iters:       iters,
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
			AllocsPerOp: float64(ms.Mallocs-mallocs) / float64(iters),
		})
	}
	return out
}
