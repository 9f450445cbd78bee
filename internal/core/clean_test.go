package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
)

// cleanStackRun drives the deployed Eventual stack (retransmission on) over
// the kernel's default uniform network with a stable Ω: `writes` writes
// round-robin over n=3 replicas, one every 6 time units (about one per
// tick), run until every replica has applied all of them in the same order.
// It returns the service, whether it converged, and the total resends.
func cleanStackRun(seed int64, writes int) (*SimService, bool, int64) {
	const n = 3
	svc := NewSimService(Config{N: n, Retransmit: true, Sim: simSeed(seed)})
	last := model.Time(30 + 6*(writes-1))
	for i := 0; i < writes; i++ {
		svc.Submit(model.ProcID(1+i%n), model.Time(30+6*i), fmt.Sprintf("set k%d v%d", i%64, i))
	}
	svc.Run(last) // RunUntilConverged waits only for writes already broadcast
	ok := svc.RunUntilConverged(last + 20000)
	var resends int64
	for _, p := range model.Procs(n) {
		resends += svc.Kernel().Automaton(p).(*retransmit.Automaton).Resends()
	}
	return svc, ok, resends
}

// TestCleanNetworkRetransmitCost is the tier-1 guard on what retransmission
// costs when nothing is lost. The uniform network's round trip (20–40 time
// units) exceeds the fixed 3-tick initial timeout (15), so without a measured
// per-link timeout every first transmission was resent while its ack was in
// flight (~6 resends and ~25 kernel messages per write); a leader that
// promoted on every tick, changed or not, cost ~13.6 messages per write
// (10.0 once it promoted only on a change or a keepalive); promotes and
// self-sends that travelled in acked envelopes cost 10.0 (7.05 since both go
// raw); and a leader that promotes each change in the step it learns it,
// not batched at its next tick, costs 7.27, at 0.72 promote broadcasts per
// write against 0.64. TestCleanRunCostModel pins the per-kind counts.
func TestCleanNetworkRetransmitCost(t *testing.T) {
	const writes = 300
	svc, ok, resends := cleanStackRun(1, writes)
	if !ok {
		t.Fatal("clean-network stack did not converge")
	}
	if per := float64(resends) / writes; per >= 0.5 {
		t.Errorf("resends per write = %.2f, want < 0.5 on a loss-free network", per)
	}
	if per := float64(svc.Kernel().MessagesSent()) / writes; per >= 8 {
		t.Errorf("kernel messages per write = %.2f, want < 8", per)
	}
	if rep := svc.Report(); !rep.StrongTOB() {
		t.Errorf("stable-leader run is not TOB: %+v", rep)
	}
	ref := svc.Snapshot(1)
	for _, p := range []model.ProcID{2, 3} {
		if got := svc.Snapshot(p); got != ref {
			t.Errorf("replica %v snapshot differs from replica 1:\n%s\nvs\n%s", p, got, ref)
		}
	}

	// An idle stretch: with nothing new to order, the leader p1 sends only
	// its keepalive, one promote per peer every 8 ticks (etob's
	// promoteKeepalive), plus at most one for a change still in flight.
	const idleTicks, keepalive, tick = 400, 8, 5
	before := leaderPromotes(svc)
	svc.Run(svc.Kernel().Now() + idleTicks*tick)
	if sent, most := leaderPromotes(svc)-before, int64((idleTicks+keepalive-1)/keepalive+1); sent > most {
		t.Errorf("leader sent %d promotes per peer over %d idle ticks, want at most %d", sent, idleTicks, most)
	}
}

// maxAllocsPerWrite is the allocation budget of the deployed stack per
// write on the clean run: one cleanStackRun, kernel and harness included,
// divided by its writes. It read 62.7 when each layer allocated its step
// context, each edge grew its node's predecessor list, each extension ran
// Kahn on fresh buffers and each apply split its command into a new slice;
// it reads about 18 without them. What remains per write:
//   - payload boxing: Data and Ack per update copy, PromoteMsg per promote,
//     SeqSnapshot per adopted promote, Applied per apply;
//   - one Graph.Clone per broadcast, and one predecessor list per node;
//   - the command ID and its BroadcastInput box;
//   - the harness: its recorder, Submit and the Sprintf of each command.
const maxAllocsPerWrite = 30

// TestReplicaStackAllocBudget pins maxAllocsPerWrite.
func TestReplicaStackAllocBudget(t *testing.T) {
	const writes = 300
	allocs := testing.AllocsPerRun(1, func() { cleanStackRun(1, writes) })
	if per := allocs / writes; per > maxAllocsPerWrite {
		t.Errorf("clean stack run: %.1f allocations per write, want at most %d", per, maxAllocsPerWrite)
	}
}

// leaderPromotes is how many promotes the leader p1 has broadcast: each is
// one raw promote per process.
func leaderPromotes(svc *SimService) int64 {
	return UnwrapReplica(svc.Kernel().Automaton(1)).Inner().(*etob.Automaton).PromotesSent()
}

// visibleP50Ticks is the median, over a run's writes, of the time from a
// write's broadcast until every replica's d_i holds it, in ticks. A write
// that a reorder moved counts from its last placement.
func visibleP50Ticks(svc *SimService) float64 {
	const tick = 5 // sim.Options' default TickInterval
	rec := svc.Recorder()
	at := map[string]model.Time{}
	for _, p := range model.Procs(svc.Kernel().N()) {
		var prev []string
		for _, pt := range rec.Seqs(p) {
			for _, id := range pt.Seq[model.CommonPrefix(prev, pt.Seq):] {
				at[id] = max(at[id], pt.T)
			}
			prev = pt.Seq
		}
	}
	var lats []model.Time
	for _, b := range rec.Broadcasts() {
		lats = append(lats, at[b.ID]-b.T)
	}
	slices.Sort(lats)
	return float64(lats[len(lats)/2]) / tick
}

// BenchmarkReplicaStackClean reports the clean-network message cost per
// write (msgs/op, resends/op, and the leader's promote broadcasts,
// promotes/op), the median write-to-visible-everywhere latency
// (visible-p50-ticks) and the stack run's allocations per write
// (allocs/write, budgeted by TestReplicaStackAllocBudget) next to its wall
// time, so a return of spurious resends, of per-tick promotes, of the
// leader's wait for its tick or of per-step allocation shows in benchmark
// logs.
func BenchmarkReplicaStackClean(b *testing.B) {
	const writes = 300
	b.ReportAllocs()
	var msgs, resends, promotes int64
	var visible float64
	var mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		svc, ok, r := cleanStackRun(1, writes)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if !ok {
			b.Fatal("clean-network stack did not converge")
		}
		msgs += svc.Kernel().MessagesSent()
		resends += r
		promotes += leaderPromotes(svc)
		visible += visibleP50Ticks(svc)
	}
	ops := float64(b.N * writes)
	b.ReportMetric(float64(msgs)/ops, "msgs/op")
	b.ReportMetric(float64(resends)/ops, "resends/op")
	b.ReportMetric(float64(promotes)/ops, "promotes/op")
	b.ReportMetric(visible/float64(b.N), "visible-p50-ticks")
	b.ReportMetric(float64(mallocs)/ops, "allocs/write")
}
