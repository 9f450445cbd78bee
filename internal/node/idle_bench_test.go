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
// Heartbeat frames the cluster sends per second, and its event loops' timer
// wake-ups per second. DegradedAfter paces the followers' beats to the
// leader (runtime.Options.DegradedAfter): 20 ms is the node default, 250 ms
// the live-kv benchmark's. Run it at pinned iterations, e.g.
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

			beats, wakes := c.loopCounters()
			cpu := processCPU(b)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(time.Second)
			}
			b.StopTimer()
			secs := time.Since(start).Seconds()
			beats2, wakes2 := c.loopCounters()
			b.ReportMetric(float64((processCPU(b)-cpu).Microseconds())/1e3/secs, "cpu-ms/s")
			b.ReportMetric(float64(beats2-beats)/secs, "heartbeats/s")
			b.ReportMetric(float64(wakes2-wakes)/secs, "wakeups/s")
		})
	}
}

// loopCounters sums the replicas' Heartbeat frames sent and timer wake-ups.
func (c *cluster) loopCounters() (beats, wakes int64) {
	for _, nd := range c.nodes {
		beats += nd.Proc().HeartbeatsSent()
		wakes += nd.Proc().Wakeups()
	}
	return beats, wakes
}

// processCPU returns the user plus system CPU time this process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
