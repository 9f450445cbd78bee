//go:build unix

package node_test

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/runtime"
)

// BenchmarkIdleCluster is the idle probe: three node.New replicas at the
// production cadence (2 ms tick, 20 ms leader timeout) on loopback, with no
// front door and no client, measured after a 1 s warm-up. Each iteration is
// one second of the idle cluster. It reports the test process's CPU time per
// wall second (getrusage: the replicas are all the process runs), the
// Heartbeat frames the cluster sends per second, its event loops' timer
// wake-ups per second, and its Ω output changes per second (the sum of the
// replicas' Proc.LeaderFlaps), so that a cadence that saves frames at the
// cost of Ω's stability shows beside the saving. It reads 0 unless the host
// delays a loop past the 20 ms leader timeout. DegradedAfter paces the
// followers' beats to the leader (runtime.Options.DegradedAfter): 20 ms is
// the node default, 250 ms the live-kv benchmark's. Run it at pinned
// iterations, e.g.
//
//	go test ./internal/node -run '^$' -bench IdleCluster -benchtime=3x
func BenchmarkIdleCluster(b *testing.B) {
	for _, window := range []time.Duration{20 * time.Millisecond, 250 * time.Millisecond} {
		b.Run(fmt.Sprintf("degraded=%v", window), func(b *testing.B) {
			c := newClusterWith(b, 3, func(cfg *node.Config) {
				cfg.Front = ""
				cfg.Runtime = runtime.Options{}
				cfg.DegradedAfter = window
			})
			c.front.Close()
			time.Sleep(time.Second)

			beats, wakes, flaps := c.loopCounters()
			cpu := processCPU(b)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(time.Second)
			}
			b.StopTimer()
			secs := time.Since(start).Seconds()
			beats2, wakes2, flaps2 := c.loopCounters()
			b.ReportMetric(float64((processCPU(b)-cpu).Microseconds())/1e3/secs, "cpu-ms/s")
			b.ReportMetric(float64(beats2-beats)/secs, "heartbeats/s")
			b.ReportMetric(float64(wakes2-wakes)/secs, "wakeups/s")
			b.ReportMetric(float64(flaps2-flaps)/secs, "flaps/s")
		})
	}
}

// loopCounters sums the replicas' Heartbeat frames sent, timer wake-ups and
// Ω output changes.
func (c *cluster) loopCounters() (beats, wakes, flaps int64) {
	for _, nd := range c.nodes {
		beats += nd.Proc().HeartbeatsSent()
		wakes += nd.Proc().Wakeups()
		flaps += nd.Proc().LeaderFlaps()
	}
	return beats, wakes, flaps
}

// processCPU returns the user plus system CPU time this process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
