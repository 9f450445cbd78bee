package node_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/smr"
	"repro/internal/trace"
)

// chaosSeed pins the soak's fault schedule: every injector's per-link
// drop/delay/duplicate decisions are a pure function of (seed, link, frame
// index) — see runtime.FaultTransport's determinism contract — so a failing
// soak reproduces under the same seed. CI runs this seed with -race.
const chaosSeed = 42

// chaosSummary is the soak's machine-readable run report, written to
// $CHAOS_SUMMARY when set (CI uploads it as an artifact).
type chaosSummary struct {
	Seed      int64 `json:"seed"`
	Acked     int   `json:"acked"`
	ClientErr int   `json:"client_errors"`
	Failovers int64 `json:"lb_failovers"`
	Declined  int64 `json:"lb_declined"`
	Denied    int64 `json:"lb_retries_denied"`
	// Cluster-wide aggregates of the per-node transport/retransmit counters
	// (the soak asserts resends and duplicates are nonzero — a lossy soak
	// that never resent anything exercised nothing — and that no frame was
	// dropped at an inbox).
	Resends      int64                  `json:"resends"`
	Duplicates   int64                  `json:"duplicates"`
	InboxDropped int64                  `json:"inbox_dropped"`
	Nodes        map[string]node.Status `json:"nodes"`
}

func writeChaosSummary(t *testing.T, c *cluster, acked, clientErr int) {
	path := os.Getenv("CHAOS_SUMMARY")
	if path == "" {
		return
	}
	sum := chaosSummary{
		Seed:      chaosSeed,
		Acked:     acked,
		ClientErr: clientErr,
		Failovers: c.front.Failovers(),
		Declined:  c.front.Declined(),
		Denied:    c.front.RetriesDenied(),
		Nodes:     make(map[string]node.Status, len(c.nodes)),
	}
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if st, err := nodeStatus(nd); err == nil {
			st.Snapshot = "" // the convergence check already compared these
			sum.Nodes[fmt.Sprint(int(nd.ID()))] = st
			sum.Resends += st.Resends
			sum.Duplicates += st.Duplicates
			sum.InboxDropped += st.InboxDropped
		}
	}
	raw, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Errorf("chaos summary: %v", err)
		return
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Errorf("chaos summary: %v", err)
	}
}

// script applies one control step to every live node's fault injector —
// partitions must be enforced at every SENDER, since the injector sits on
// the outbound path.
func (c *cluster) script(step func(f *runtime.FaultTransport)) {
	for _, nd := range c.nodes {
		if nd != nil && nd.Fault() != nil {
			step(nd.Fault())
		}
	}
}

// midSoakScrape hits every listed node's /metrics DURING the soak — faults
// live, traffic flowing — asserting each scrape is individually valid
// Prometheus text and that the named counters never step backwards across
// scrapes (prev carries per-node last-seen values between calls).
func midSoakScrape(t *testing.T, nodes []*node.Node, prev map[model.ProcID]map[string]int64) {
	t.Helper()
	counters := []string{
		obs.MetricNodeAccepted, obs.MetricSMRApplied, obs.MetricRetransmitResends,
		obs.MetricRetransmitDuplicates, obs.MetricTransportFlushes, obs.MetricTransportInjected,
		obs.MetricTransportBytesSent,
	}
	for _, nd := range nodes {
		resp, err := testClient.Get(nd.URL() + "/metrics")
		if err != nil {
			t.Fatalf("mid-soak scrape %v: %v", nd.ID(), err)
		}
		vals, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("mid-soak scrape %v: invalid exposition under chaos: %v", nd.ID(), err)
		}
		last := prev[nd.ID()]
		if last == nil {
			last = map[string]int64{}
			prev[nd.ID()] = last
		}
		for _, name := range counters {
			if vals[name] < last[name] {
				t.Errorf("mid-soak scrape %v: %s went backwards (%d -> %d)", nd.ID(), name, last[name], vals[name])
			}
			last[name] = vals[name]
		}
	}
}

// TestChaosSoakConvergesUnderScriptedFaults is the service plane's hostile
// soak: four replicas behind the front door, every transport wrapped in a
// seeded lossy injector, while an OPEN-LOOP client streams updates — each
// operation is sent once, and whatever the front door acks is a promise.
// Scripted over the stream: a two-sided partition and heal, then a replica
// kill and restart. The acceptance bar:
//
//   - ZERO acked-then-lost writes: every 202-acked update is present in the
//     final converged state of every replica.
//   - Convergence after heal: all four snapshots byte-identical.
//   - Bounded retransmit state: pending envelopes drain to zero once the
//     cluster is quiet (nothing leaks from the partition/kill windows).
//
// Client-visible errors during fault windows are permitted (counted, not
// retried — open loop); silent loss of an ack is not.
//
// The soak doubles as the observability plane's trust check: each replica
// records its StepLog (the conformance ground truth), /metrics is scraped
// MID-soak (valid exposition and monotone counters while faults are live),
// and after convergence the scraped counters are cross-checked against the
// StepLog — accepted ops against input steps, applied ops against the
// replica's Applied outputs — so a dashboard number provably equals what the
// protocol actually did.
func TestChaosSoakConvergesUnderScriptedFaults(t *testing.T) {
	logs := make(map[model.ProcID]*trace.StepLog)
	c := newClusterWith(t, 4, func(cfg *node.Config) {
		fc, ok := runtime.FaultPreset("lossy", chaosSeed+int64(cfg.ID))
		if !ok {
			t.Fatal("lossy fault preset missing")
		}
		cfg.Fault = &fc
		// One StepLog per identity, shared across restarts: the ground truth
		// for the metrics cross-check below.
		if logs[cfg.ID] == nil {
			logs[cfg.ID] = trace.NewStepLog()
		}
		cfg.Runtime.StepLog = logs[cfg.ID]
	})
	waitHealthy(t, c, 4, 10*time.Second)
	scrapes := make(map[model.ProcID]map[string]int64)

	want := make(map[string]string)
	acked, clientErr := 0, 0
	phase := func(tag string, count int) {
		for i := 0; i < count; i++ {
			k, v := fmt.Sprintf("%s%d", tag, i), fmt.Sprintf("v%d", i)
			if err := c.update(fmt.Sprintf("s%d", i%7), "set "+k+" "+v); err != nil {
				clientErr++
				continue
			}
			want[k] = v
			acked++
			time.Sleep(2 * time.Millisecond)
		}
	}

	phase("a", 40) // seeded 15% loss on every link; retransmit heals
	midSoakScrape(t, c.nodes, scrapes)

	// Two-sided partition {1,2} | {3,4}: enforced at every sender, so no
	// frame crosses in either direction. Both sides keep a peer, so neither
	// degrades — the service stays writable on both sides and the halves
	// diverge until the heal.
	c.script(func(f *runtime.FaultTransport) { f.Partition(1, 2) })
	phase("b", 40)
	midSoakScrape(t, c.nodes, scrapes) // scraped THROUGH the partition
	c.script(func(f *runtime.FaultTransport) { f.Heal() })
	phase("c", 30)

	// Crash replica 4 without deregistration; probes must evict it while the
	// client keeps streaming, then it returns under the same identity.
	c.nodes[3].Kill()
	waitHealthy(t, c, 3, 15*time.Second)
	phase("d", 30)
	midSoakScrape(t, c.nodes[:3], scrapes) // replica 4 is a corpse; scrape survivors
	c.nodes[3] = c.startNode(t, 4)
	waitHealthy(t, c, 4, 15*time.Second)
	phase("e", 20)

	if acked == 0 {
		t.Fatal("open-loop client got zero acks; the soak exercised nothing")
	}
	t.Logf("chaos soak: %d acked, %d client errors, lb failovers=%d declined=%d",
		acked, clientErr, c.front.Failovers(), c.front.Declined())

	// Zero acked-then-lost: every acked write in every replica, snapshots
	// identical. The restarted replica rebuilds via promote traffic.
	waitConverged(t, c.nodes, acked, want, 120*time.Second)

	// Bounded retransmit state: the client is quiet, but the leader keeps
	// broadcasting promote traffic forever, so pending never parks at zero —
	// the invariant is that it stays BOUNDED by the in-flight window (a few
	// envelopes per link) and nothing from the partition or kill windows
	// leaked into a growing backlog. Sample for a sustained window; any
	// sample far above the steady-state band, or any abandonment, fails.
	const pendingBound = 64 // in-flight window: ~a few envelopes × 3 links, with slack
	sampleUntil := time.Now().Add(5 * time.Second)
	for time.Now().Before(sampleUntil) {
		for _, nd := range c.nodes {
			st, err := nodeStatus(nd)
			if err != nil {
				t.Fatalf("status during drain check: %v", err)
			}
			if st.Pending > pendingBound {
				t.Fatalf("replica %d pending envelopes %d exceed the in-flight bound %d: retransmit state leaked",
					st.ID, st.Pending, pendingBound)
			}
			if st.Abandoned != 0 {
				t.Fatalf("replica %d abandoned %d envelopes during the soak (give-up must stay far beyond chaos scales)",
					st.ID, st.Abandoned)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The healing machinery must have visibly worked: 15% seeded loss on
	// every link forces resends, and lost ACKs make some of those resends
	// arrive twice — receiver-side dedup records them as duplicates. Both
	// counters at zero would mean the soak never exercised the layer it
	// exists to test. The inbox, meanwhile, must never have shed a frame:
	// this workload is far below the event loop's capacity, so any inbox
	// drop is a scheduling bug, not load.
	var resends, dups, inboxDropped int64
	for _, nd := range c.nodes {
		st, err := nodeStatus(nd)
		if err != nil {
			t.Fatalf("status for counter audit: %v", err)
		}
		resends += st.Resends
		dups += st.Duplicates
		inboxDropped += st.InboxDropped
	}
	if resends == 0 {
		t.Error("seeded 15% loss produced zero resends across the cluster")
	}
	if dups == 0 {
		t.Error("seeded loss produced zero receiver-side duplicates (ack loss should cause some)")
	}
	if inboxDropped != 0 {
		t.Errorf("%d frames dropped at replica inboxes under a light workload", inboxDropped)
	}
	t.Logf("counter audit: resends=%d duplicates=%d inbox_dropped=%d", resends, dups, inboxDropped)

	// Metrics-vs-StepLog cross-check, on the replicas that lived through the
	// whole soak (replica 4's restart split its counters across two lives,
	// but its shared StepLog spans both). The StepLog is the conformance
	// ground truth — every atomic step with its trigger and emissions — so:
	//
	//   - node_accepted_total must equal the number of input steps that
	//     carried a client command (every 202 became exactly one step), and
	//   - smr_applied_total must equal the Total of the replica's LAST
	//     Applied output (the machine's own account of its applied prefix).
	//
	// A divergence here means the observability plane is lying about the
	// protocol — the one failure mode a metrics endpoint must not have.
	for _, nd := range c.nodes[:3] {
		steps := logs[nd.ID()].Steps()
		var inputSteps, lastApplied int64
		for _, s := range steps {
			if s.Kind == trace.StepInput {
				if _, isCmd := s.In.(smr.Command); isCmd {
					inputSteps++
				}
			}
			for _, out := range s.Outputs {
				if ap, isApplied := out.(smr.Applied); isApplied {
					lastApplied = int64(ap.Total)
				}
			}
		}
		resp, err := testClient.Get(nd.URL() + "/metrics")
		if err != nil {
			t.Fatalf("final scrape %v: %v", nd.ID(), err)
		}
		vals, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("final scrape %v: invalid exposition: %v", nd.ID(), err)
		}
		if got := vals[obs.MetricNodeAccepted]; got != inputSteps {
			t.Errorf("replica %v: node_accepted_total=%d but StepLog recorded %d command input steps",
				nd.ID(), got, inputSteps)
		}
		if got := vals[obs.MetricSMRApplied]; got != lastApplied {
			t.Errorf("replica %v: smr_applied_total=%d but StepLog's last Applied.Total=%d",
				nd.ID(), got, lastApplied)
		}
		if int64(len(steps)) == 0 {
			t.Errorf("replica %v recorded no steps; cross-check is vacuous", nd.ID())
		}
	}

	writeChaosSummary(t, c, acked, clientErr)
}

// TestDegradedReplicaRefusesWritesServesStaleReads pins the node's graceful
// degradation contract end to end: a replica partitioned away from EVERY
// peer refuses writes with 503 + Retry-After (the front door fails those
// over), keeps serving reads marked X-Ec-Degraded, and self-heals — clearing
// degraded mode and converging on the writes it missed — when the partition
// lifts.
func TestDegradedReplicaRefusesWritesServesStaleReads(t *testing.T) {
	c := newClusterWith(t, 3, func(cfg *node.Config) {
		cfg.Fault = &runtime.FaultConfig{} // pure control surface, no seeded faults
		cfg.DegradedAfter = 250 * time.Millisecond
		cfg.BootGrace = 500 * time.Millisecond
	})
	waitHealthy(t, c, 3, 10*time.Second)

	// Baseline writes so the degraded replica has state worth serving stale.
	want := map[string]string{}
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("base%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if err := c.update(fmt.Sprintf("s%d", i), "set "+k+" "+v); err != nil {
			t.Fatalf("baseline update: %v", err)
		}
	}
	waitConverged(t, c.nodes, 10, want, 30*time.Second)
	time.Sleep(600 * time.Millisecond) // past every replica's boot grace

	// Isolate replica 3 on every sender: it hears nothing and nothing it
	// sends arrives.
	c.script(func(f *runtime.FaultTransport) { f.Partition(3) })
	iso := c.nodes[2]
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := nodeStatus(iso)
		if err == nil && st.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("isolated replica never declared itself degraded")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Direct write: explicit 503 with Retry-After, never a silent accept.
	resp, err := testClient.Post(iso.URL()+"/update?cmd=set+lost+1", "text/plain", nil)
	if err != nil {
		t.Fatalf("direct write: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}

	// Direct read: served, but marked stale.
	resp, err = testClient.Get(iso.URL() + "/snapshot")
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ec-Degraded"); got != "stale" {
		t.Fatalf("degraded read staleness marker = %q, want \"stale\"", got)
	}

	// Healthz stays green: a degraded replica is read capacity, not a corpse.
	if healthy := c.front.Healthy(); len(healthy) != 3 {
		t.Fatalf("front door evicted the degraded replica: healthy=%v", healthy)
	}

	// Writes through the front door keep succeeding — sessions ranked onto
	// the degraded replica fail over on its explicit decline.
	for i := 0; i < 12; i++ {
		k, v := fmt.Sprintf("part%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if err := c.update(fmt.Sprintf("s%d", i), "set "+k+" "+v); err != nil {
			t.Fatalf("front-door write during partition: %v", err)
		}
	}
	if st, err := nodeStatus(iso); err != nil || st.Rejected == 0 {
		// Rendezvous may not have ranked any session onto replica 3; the
		// direct write above guarantees at least one rejection.
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		t.Fatalf("degraded replica recorded no rejected writes (want ≥ 1 from the direct attempt)")
	}

	// Heal: degraded mode clears itself and the replica converges on every
	// write it missed.
	c.script(func(f *runtime.FaultTransport) { f.Heal() })
	deadline = time.Now().Add(10 * time.Second)
	for {
		st, err := nodeStatus(iso)
		if err == nil && !st.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("degraded mode never cleared after heal")
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitConverged(t, c.nodes, 22, want, 60*time.Second)
}
