package bench

import (
	"fmt"
	"time"

	"repro/internal/causal"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// ScalingNResult is one n of the En scaling experiment: the same ETOB
// workload — every process broadcasting a fixed number of ops — run at
// growing cluster sizes with the paper's all-to-all update(CG_i) broadcast,
// recording kernel throughput and the dissemination traffic it paid.
//
// Envelopes/EnvPerOp are the measured systemwide update totals (one
// broadcast costs n envelopes, the sender's own copy included), and Bytes
// charges each envelope its payload wire size — the sender's full
// O(nodes+edges) graph. Promote traffic is excluded: it is the leader's
// per-timeout broadcast and does not depend on the workload.
type ScalingNResult struct {
	N   int `json:"n"`
	Ops int `json:"ops"`
	// DeliveredPct is the fraction of (op, process) deliveries that landed
	// inside the horizon, in percent; on the clean network it sits at 100.
	DeliveredPct float64 `json:"delivered_pct"`
	Steps        int64   `json:"steps"`
	WallMS       float64 `json:"wall_ms"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	Envelopes    int64   `json:"envelopes"`
	EnvPerOp     float64 `json:"envelopes_per_op"`
	Bytes        int64   `json:"bytes"`
	BytesPerProc float64 `json:"bytes_per_proc"`
}

// scaleNObs tallies update envelopes and their payload wire bytes, and
// tracks delivery progress (the summed length of every process's d_i) so the
// cell can stop as soon as dissemination completes. UpdateMsg graphs are
// memoized by pointer: a broadcast shares one clone across all n
// recipients, so WireSize runs once per flush, not once per envelope.
type scaleNObs struct {
	envelopes int64
	bytes     int64
	memo      map[*causal.Graph]int
	seqLen    map[model.ProcID]int
	delivered int64
}

func newScaleNObs(n int) *scaleNObs {
	return &scaleNObs{memo: make(map[*causal.Graph]int), seqLen: make(map[model.ProcID]int, n)}
}

func (o *scaleNObs) OnSend(t model.Time, m sim.Message) {
	p, ok := m.Payload.(etob.UpdateMsg)
	if !ok {
		return
	}
	sz, ok := o.memo[p.CG]
	if !ok {
		sz = p.CG.WireSize()
		o.memo[p.CG] = sz
	}
	o.envelopes++
	o.bytes += int64(sz)
}

func (o *scaleNObs) OnDeliver(model.Time, sim.Message) {}
func (o *scaleNObs) OnOutput(p model.ProcID, _ model.Time, v any) {
	if s, ok := v.(model.SeqSnapshot); ok {
		o.delivered += int64(len(s.Seq) - o.seqLen[p])
		o.seqLen[p] = len(s.Seq)
	}
}
func (o *scaleNObs) OnInput(model.ProcID, model.Time, any) {}

// ScaleN runs the En scaling experiment over the given cluster sizes and
// returns one row per n for the Report's "scaling_n" section. quick shrinks
// the per-process op count; the workload and all protocol randomness derive
// from seed, so everything but the wall-clock fields is reproducible.
func ScaleN(ns []int, quick bool, seed int64) []ScalingNResult {
	perProc := 2
	if quick {
		perProc = 1
	}
	var out []ScalingNResult
	for _, n := range ns {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaStable(fp, 1)
		obs := newScaleNObs(n)
		k := sim.New(fp, det, etob.Factory(), sim.Options{Seed: seed + int64(n)})
		k.SetObserver(obs)
		// Ops arrive as a staggered stream (one submission per 10 time units
		// round-robin across processes), not one burst, so the causality
		// graph grows across flushes and each update re-ships a longer
		// history — the cost the bytes column measures.
		ops := n * perProc
		for j := 0; j < perProc; j++ {
			for pi, p := range model.Procs(n) {
				at := model.Time(20 + (j*n+pi)*10)
				k.ScheduleInput(p, at, model.BroadcastInput{ID: fmt.Sprintf("b/%v/%d", p, j)})
			}
		}
		window := model.Time(20 + ops*10)
		want := int64(n * ops)
		start := time.Now()
		k.RunUntil(window+20000, func(*sim.Kernel) bool { return obs.delivered >= want })
		wall := time.Since(start)

		r := ScalingNResult{
			N:            n,
			Ops:          ops,
			DeliveredPct: 100 * float64(obs.delivered) / float64(want),
			Steps:        k.Steps(),
			WallMS:       ms(wall),
			Envelopes:    obs.envelopes,
			EnvPerOp:     float64(obs.envelopes) / float64(ops),
			Bytes:        obs.bytes,
			BytesPerProc: float64(obs.bytes) / float64(n),
		}
		if wall > 0 {
			r.StepsPerSec = float64(r.Steps) / wall.Seconds()
		}
		out = append(out, r)
	}
	return out
}
