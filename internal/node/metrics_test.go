package node_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/smr"
)

// scrapeMetrics fetches one endpoint's /metrics and strict-parses the
// exposition (ParseText rejects malformed Prometheus text outright).
func scrapeMetrics(t *testing.T, baseURL string) map[string]int64 {
	t.Helper()
	resp, err := testClient.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: %s", baseURL, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape %s: content type %q, want Prometheus text 0.0.4", baseURL, ct)
	}
	vals, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: invalid exposition: %v", baseURL, err)
	}
	return vals
}

// TestMetricsEndpointLiveCluster drives traffic through the front door and
// pins the live half of the observability plane: every replica and the front
// door serve valid Prometheus text, the replicas expose the full sim/live
// parity name set, the scraped counters agree with ground truth (ops pushed,
// ops applied, /status numbers), and /trace reconstructs a submitted op's
// lifecycle through to order-stability.
func TestMetricsEndpointLiveCluster(t *testing.T) {
	c := newCluster(t, 3)
	waitHealthy(t, c, 3, 10*time.Second)

	const ops = 6
	want := map[string]string{}
	for i := 0; i < ops; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if err := c.update(fmt.Sprintf("session-%d", i), "set "+k+" "+v); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		want[k] = v
	}
	waitConverged(t, c.nodes, ops, want, 20*time.Second)

	// Frames prove liveness, so a busy link carries no heartbeat; but once
	// the cluster is idle, every node beats: the leader its followers, and
	// each follower the leader.
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range c.nodes {
		for scrapeMetrics(t, nd.URL())[obs.MetricOmegaHeartbeats] == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("node %v omega_heartbeats_sent_total still 0 on an idle cluster", nd.ID())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	var totalAccepted, totalSubmitTraces int64
	for _, nd := range c.nodes {
		vals := scrapeMetrics(t, nd.URL())
		// Name parity: the live scrape must expose every stack metric the sim
		// registry exposes (the sim half is pinned in internal/core).
		for _, name := range obs.StackNames() {
			if _, ok := vals[name]; !ok {
				t.Errorf("node %v /metrics missing stack metric %s", nd.ID(), name)
			}
		}
		for _, name := range []string{
			obs.MetricTransportFlushes, obs.MetricTransportInboxDrop, obs.MetricTransportBytesSent,
			obs.MetricNodeAccepted, obs.MetricNodeDegraded,
			obs.MetricOmegaFlaps, obs.MetricOmegaLeader, obs.MetricOmegaHeartbeats,
			obs.MetricRuntimeWakeups,
		} {
			if _, ok := vals[name]; !ok {
				t.Errorf("node %v /metrics missing live metric %s", nd.ID(), name)
			}
		}
		if _, ok := vals[obs.MetricHTTPLatency+"_count"]; !ok {
			t.Errorf("node %v /metrics missing HTTP latency summary", nd.ID())
		}
		if vals[obs.MetricTransportBytesSent] == 0 {
			t.Errorf("node %v transport_bytes_sent_total = 0 in a cluster that replicated %d ops", nd.ID(), ops)
		}
		// The node's default retransmission schedule bounds every learned
		// per-link timeout to [RTO, MaxRTO] = [3, 48] ticks.
		if rto := vals[obs.MetricRetransmitRTO]; rto < 3 || rto > 48 {
			t.Errorf("node %v retransmit_rto_ticks = %d, want within [3, 48]", nd.ID(), rto)
		}

		// Ground truth: a converged 3-replica run applied exactly `ops`
		// commands everywhere, and accepted counts must sum to `ops`.
		if got := vals[obs.MetricSMRApplied]; got != ops {
			t.Errorf("node %v smr_applied_total = %d, want %d", nd.ID(), got, ops)
		}
		totalAccepted += vals[obs.MetricNodeAccepted]
		if got, accepted := vals[obs.MetricNodeAccepted], nd.Accepted(); got != accepted {
			t.Errorf("node %v node_accepted_total = %d, accessor says %d", nd.ID(), got, accepted)
		}

		// /status is served off the same registry: its numbers and the
		// scrape's numbers must agree.
		st, err := nodeStatus(nd)
		if err != nil {
			t.Fatalf("status %v: %v", nd.ID(), err)
		}
		if int64(st.Applied) != vals[obs.MetricSMRApplied] {
			t.Errorf("node %v status applied %d != scraped %d", nd.ID(), st.Applied, vals[obs.MetricSMRApplied])
		}
		if st.Accepted != vals[obs.MetricNodeAccepted] {
			t.Errorf("node %v status accepted %d != scraped %d", nd.ID(), st.Accepted, vals[obs.MetricNodeAccepted])
		}
		if st.Leader != int(vals[obs.MetricOmegaLeader]) {
			t.Errorf("node %v status leader %d != scraped %d", nd.ID(), st.Leader, vals[obs.MetricOmegaLeader])
		}
		if st.Flushes == 0 {
			t.Errorf("node %v transport reports zero writer flushes in /status", nd.ID())
		}

		// Trace: every op this node submitted has a full causal timeline —
		// submit, broadcast, local deliver — and an order-stability reading.
		self := fmt.Sprintf("p%d.", int(nd.ID()))
		var idx struct {
			Tracked int      `json:"tracked"`
			Recent  []string `json:"recent"`
		}
		resp, err := testClient.Get(nd.URL() + "/trace")
		if err != nil {
			t.Fatalf("trace index %v: %v", nd.ID(), err)
		}
		err = json.NewDecoder(resp.Body).Decode(&idx)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("trace index %v: %v", nd.ID(), err)
		}
		if idx.Tracked == 0 {
			t.Fatalf("node %v traced no ops after %d applied", nd.ID(), ops)
		}
		for _, op := range idx.Recent {
			if !strings.HasPrefix(op, self) {
				continue // submitted elsewhere: no submit stamp here
			}
			totalSubmitTraces++
			var tl struct {
				Events []struct {
					Stage string `json:"stage"`
					Proc  string `json:"proc"`
					At    int64  `json:"at"`
				} `json:"events"`
				OrderStableAt int64 `json:"order_stable_at"`
			}
			resp, err := testClient.Get(nd.URL() + "/trace?op=" + url.QueryEscape(op))
			if err != nil {
				t.Fatalf("trace %q: %v", op, err)
			}
			err = json.NewDecoder(resp.Body).Decode(&tl)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("trace %q: %v", op, err)
			}
			stages := map[string]int{}
			for _, ev := range tl.Events {
				stages[ev.Stage]++
			}
			for _, stage := range []string{"submit", "broadcast", "deliver"} {
				if stages[stage] == 0 {
					t.Errorf("op %q on node %v missing %s stage (timeline %v)", op, nd.ID(), stage, stages)
				}
			}
			if tl.OrderStableAt == 0 {
				t.Errorf("op %q has no order-stability reading", op)
			}
		}
	}
	if totalAccepted != ops {
		t.Errorf("accepted across cluster = %d, want %d", totalAccepted, ops)
	}
	if totalSubmitTraces == 0 {
		t.Error("no submitted op had a local trace on any node")
	}

	// The front door's own observability: valid exposition, routing gauges.
	fvals := scrapeMetrics(t, c.front.URL())
	if got := fvals[obs.MetricLBHealthy]; got != 3 {
		t.Errorf("lb_healthy_replicas = %d, want 3", got)
	}
	if _, ok := fvals[obs.MetricLBFailovers]; !ok {
		t.Error("front door /metrics missing lb_failovers_total")
	}
	if fvals[obs.MetricHTTPLatency+"_count"] < ops {
		t.Errorf("front door routed-request latency count %d < %d ops", fvals[obs.MetricHTTPLatency+"_count"], ops)
	}
}

// TestMetricsScrapeMonotonicUnderLoad pins that repeated scrapes during live
// traffic are each individually valid and counters never step backwards —
// the mid-soak invariant the chaos harness also asserts.
func TestMetricsScrapeMonotonicUnderLoad(t *testing.T) {
	c := newCluster(t, 2)
	waitHealthy(t, c, 2, 10*time.Second)
	nd := c.nodes[0]
	prev := map[string]int64{}
	counters := []string{
		obs.MetricNodeAccepted, obs.MetricSMRApplied,
		obs.MetricTransportFlushes, obs.MetricRetransmitResends,
		obs.MetricTransportBytesSent, obs.MetricOmegaHeartbeats, obs.MetricRuntimeWakeups,
	}
	for i := 0; i < 5; i++ {
		if err := c.update("mono", fmt.Sprintf("set m%d %d", i, i)); err != nil {
			t.Fatalf("update: %v", err)
		}
		vals := scrapeMetrics(t, nd.URL())
		for _, name := range counters {
			if vals[name] < prev[name] {
				t.Errorf("scrape %d: %s went backwards (%d -> %d)", i, name, prev[name], vals[name])
			}
			prev[name] = vals[name]
		}
		time.Sleep(30 * time.Millisecond)
	}
	if prev[obs.MetricTransportBytesSent] == 0 {
		t.Error("transport_bytes_sent_total stayed 0 under live traffic")
	}
}

// countingKV is a KV store that counts its Snapshot calls.
type countingKV struct {
	*smr.KVStore
	snapshots *atomic.Int64
}

func (m countingKV) Snapshot() string {
	m.snapshots.Add(1)
	return m.KVStore.Snapshot()
}

// TestMetricsScrapeTakesNoSnapshot pins that a /metrics scrape costs the
// stack's counters, not the machine's state: N scrapes call the machine's
// Snapshot zero times, while /status still serves the current snapshot.
func TestMetricsScrapeTakesNoSnapshot(t *testing.T) {
	var snapshots atomic.Int64
	c := newClusterWith(t, 2, func(cfg *node.Config) {
		cfg.Machine = func() smr.StateMachine { return countingKV{smr.NewKVStore(), &snapshots} }
	})
	waitHealthy(t, c, 2, 10*time.Second)
	if err := c.update("snap", "set s 1"); err != nil {
		t.Fatalf("update: %v", err)
	}
	waitConverged(t, c.nodes, 1, map[string]string{"s": "1"}, 20*time.Second)

	nd := c.nodes[0]
	before := snapshots.Load()
	const scrapes = 5
	for i := 0; i < scrapes; i++ {
		scrapeMetrics(t, nd.URL())
	}
	if got := snapshots.Load() - before; got != 0 {
		t.Errorf("%d /metrics scrapes took %d machine snapshots, want 0", scrapes, got)
	}
	st, err := nodeStatus(nd)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Snapshot != "s=1" {
		t.Errorf("/status snapshot = %q, want %q", st.Snapshot, "s=1")
	}
}
