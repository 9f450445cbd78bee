package sim

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
)

// benchKernel drives one echo-protocol run to completion; the per-op cost is
// dominated by the kernel's event loop (heap ops, step contexts, sends).
// The quiet echo automaton allocates nothing, so allocs/op is the kernel's:
// mostly building a fresh kernel and warming its recipient pool
// (grabRecips), which each op does once.
func benchKernel(b *testing.B, opts Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp := model.NewFailurePattern(8)
		det := fd.NewOmegaStable(fp, 1)
		k := New(fp, det, quietEchoFactory(), opts)
		k.ScheduleInput(1, 60, "go")
		k.Run(5000)
		if k.Steps() == 0 {
			b.Fatal("run did nothing")
		}
	}
}

func BenchmarkKernelUniform(b *testing.B) {
	benchKernel(b, Options{Seed: 1, MinDelay: 3, MaxDelay: 30})
}

func BenchmarkKernelPartitioned(b *testing.B) {
	benchKernel(b, Options{Seed: 1, Network: func() NetworkModel {
		return &Partitioned{LeftSize: 4, FirstAt: 500, Duration: 400, Interval: 1500}
	}})
}

func BenchmarkKernelJittery(b *testing.B) {
	benchKernel(b, Options{Seed: 1, Network: func() NetworkModel { return NewJittery(20) }})
}

// benchNs are the cluster sizes the big-n benchmarks sweep.
var benchNs = []int{5, 64, 256}

// bcastAuto broadcasts once per input and is otherwise inert, so a run's
// cost is the kernel's broadcast fan-out alone: n heap inserts and n
// delivery steps per submitted input, nothing protocol-side.
type bcastAuto struct{ got int }

func (a *bcastAuto) Init(model.Context)                          {}
func (a *bcastAuto) Tick(model.Context)                          {}
func (a *bcastAuto) Recv(_ model.Context, _ model.ProcID, _ any) { a.got++ }
func (a *bcastAuto) Input(ctx model.Context, _ any)              { ctx.Broadcast("payload") }

// BenchmarkKernelBroadcastN measures broadcast fan-out cost as n grows: 32
// staggered inputs each fan out to all n processes, so one op is O(32·n)
// heap inserts + deliveries dominated by the kernel's per-recipient send
// path (delay draw, slab alloc, sift).
func BenchmarkKernelBroadcastN(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fp := model.NewFailurePattern(n)
				det := fd.NewOmegaStable(fp, 1)
				k := New(fp, det, func(p model.ProcID, n int) model.Automaton {
					return &bcastAuto{}
				}, Options{Seed: 1, MinDelay: 3, MaxDelay: 30})
				for j := 0; j < 32; j++ {
					k.ScheduleInput(model.ProcID(j%n+1), model.Time(20+j*10), "go")
				}
				k.Run(400)
				if got := k.Automaton(1).(*bcastAuto).got; got != 32 {
					b.Fatalf("p1 received %d broadcasts, want 32", got)
				}
			}
		})
	}
}

// rotorAuto sends one unicast to a rotating peer on every tick, keeping
// ~n messages in flight at all times under jittery delays — the heap is in
// constant insert/pop churn with no long quiet stretches.
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

// BenchmarkKernelHeapChurnN measures the slab heap under sustained churn as
// n grows: every process sends every tick with jittered delays, so inserts
// land out of order and the heap never drains until the horizon.
func BenchmarkKernelHeapChurnN(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fp := model.NewFailurePattern(n)
				det := fd.NewOmegaStable(fp, 1)
				k := New(fp, det, func(p model.ProcID, n int) model.Automaton {
					return &rotorAuto{self: p, n: n}
				}, Options{Seed: 1, Network: func() NetworkModel { return NewJittery(20) }})
				k.Run(500)
				if k.MessagesSent() == 0 {
					b.Fatal("no churn traffic")
				}
			}
		})
	}
}

// BenchmarkKernelSigmaFD drives the same run under the composite Ω+Σ
// detector, which the kernel queries at every step. Its values are boxed
// once at construction, so allocs/op must stay in the same regime as the
// Ω-only benchmarks; a Value that built its quorum per query read some
// 250 times as many.
func BenchmarkKernelSigmaFD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp := model.NewFailurePattern(8)
		det := fd.NewOmegaSigma(fd.NewOmegaStable(fp, 1), fd.NewSigma(fp, 0))
		k := New(fp, det, quietEchoFactory(), Options{Seed: 1, MinDelay: 3, MaxDelay: 30})
		k.ScheduleInput(1, 60, "go")
		k.Run(5000)
		if k.Steps() == 0 {
			b.Fatal("run did nothing")
		}
	}
}
