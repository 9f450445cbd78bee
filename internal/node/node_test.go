package node_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/runtime"
)

// testClient bounds every client call so a wedged front door fails a test
// instead of hanging it into the suite timeout.
var testClient = &http.Client{Timeout: 45 * time.Second}

// cluster is a live 3-replica service behind a front door, entirely on
// loopback — the deployable topology, in-process for testability.
type cluster struct {
	front   *lb.Front
	nodes   []*node.Node
	peers   map[model.ProcID]string
	cfgHook func(*node.Config) // optional per-node config mutation (chaos tests)
}

func newCluster(t *testing.T, n int) *cluster {
	return newClusterWith(t, n, nil)
}

// newClusterWith boots a cluster whose every node config first passes
// through hook — the chaos tests use it to wire fault injectors and degraded
// windows into otherwise-standard replicas.
//
// Each replica's transport port is reserved by listening on 127.0.0.1:0 and
// closing the listener before the replica binds it, so another process (a
// parallel test binary under `go test ./...`) can take a port in between.
// Every replica's peer map names every port, so one lost port means a fresh
// set of ports for all of them: the boot is retried from scratch, on new
// ports and a new front door, when a bind fails with EADDRINUSE.
func newClusterWith(t testing.TB, n int, hook func(*node.Config)) *cluster {
	t.Helper()
	const bootAttempts = 5
	for attempt := 1; ; attempt++ {
		c, err := bootCluster(n, hook)
		if err == nil {
			t.Cleanup(c.close)
			return c
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == bootAttempts {
			t.Fatalf("boot cluster (attempt %d): %v", attempt, err)
		}
		t.Logf("boot attempt %d: %v; retrying on fresh ports", attempt, err)
	}
}

// bootCluster reserves n loopback ports and boots a front door and one
// replica on each port. On error, whatever it started is stopped.
func bootCluster(n int, hook func(*node.Config)) (*cluster, error) {
	front, err := lb.New(lb.Config{
		ProbeInterval: 50 * time.Millisecond,
		// Generous probe timeout: under the race detector a loaded replica can
		// take tens of milliseconds to answer /healthz, and that slowness must
		// not read as death.
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
	})
	if err != nil {
		return nil, fmt.Errorf("front door: %w", err)
	}
	c := &cluster{front: front, peers: make(map[model.ProcID]string, n), cfgHook: hook}
	var reserved []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range reserved {
				ln.Close()
			}
			front.Close()
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		c.peers[model.ProcID(i+1)] = ln.Addr().String()
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}
	for i := 0; i < n; i++ {
		nd, err := node.New(c.config(model.ProcID(i + 1)))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start replica %d: %w", i+1, err)
		}
		c.nodes = append(c.nodes, nd)
	}
	return c, nil
}

// close stops every replica still in the cluster and the front door.
func (c *cluster) close() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Kill()
		}
	}
	c.front.Close()
}

// config is replica p's node configuration on its reserved port.
func (c *cluster) config(p model.ProcID) node.Config {
	cfg := node.Config{
		ID:    p,
		Peers: clonePeers(c.peers),
		Front: c.front.URL(),
		// Run the event loops at a 10ms tick and a 100ms leader timeout
		// instead of the 2ms/20ms production defaults: a test boots up to
		// two 3-replica clusters in one process, and under the race
		// detector six 2ms loops saturate the scheduler and starve the HTTP
		// handlers the front door probes.
		Runtime: runtime.Options{
			TickInterval:  10 * time.Millisecond,
			LeaderTimeout: 100 * time.Millisecond,
		},
	}
	if c.cfgHook != nil {
		c.cfgHook(&cfg)
	}
	return cfg
}

// startNode re-boots replica p on its reserved transport address, retrying
// while the address is still held by its previous incarnation.
func (c *cluster) startNode(t *testing.T, p model.ProcID) *node.Node {
	t.Helper()
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		var nd *node.Node
		if nd, err = node.New(c.config(p)); err == nil {
			return nd
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("start replica %v: %v", p, err)
	return nil
}

func clonePeers(m map[model.ProcID]string) map[model.ProcID]string {
	out := make(map[model.ProcID]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// update posts one command through the front door under a session key and
// reports whether it was accepted.
func (c *cluster) update(session, cmd string) error {
	req, err := http.NewRequest(http.MethodPost,
		c.front.URL()+"/update?cmd="+strings.ReplaceAll(cmd, " ", "+"), nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Session", session)
	resp, err := testClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("update %q: %s: %s", cmd, resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// status fetches a replica's /status directly.
func nodeStatus(nd *node.Node) (node.Status, error) {
	var st node.Status
	resp, err := testClient.Get(nd.URL() + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitConverged waits until every listed node has applied at least minApplied
// commands and all snapshots are identical and contain every want pair. On
// timeout it reports every replica's applied count, snapshot and missing
// want keys, so a lost write shows who holds it.
func waitConverged(t *testing.T, nodes []*node.Node, minApplied int, want map[string]string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	var last []string
	for time.Now().Before(deadline) {
		last = last[:0]
		ok := true
		ref := ""
		for i, nd := range nodes {
			st, err := nodeStatus(nd)
			if err != nil {
				ok = false
				last = append(last, fmt.Sprintf("%v: %v", nd.ID(), err))
				continue
			}
			var missing []string
			for k, v := range want {
				if !hasPair(st.Snapshot, k+"="+v) {
					missing = append(missing, k)
				}
			}
			sort.Strings(missing)
			last = append(last, fmt.Sprintf("%v: applied=%d missing=%v snap=%s", nd.ID(), st.Applied, missing, st.Snapshot))
			if i == 0 {
				ref = st.Snapshot
			}
			if st.Applied < minApplied || len(missing) > 0 || st.Snapshot != ref {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replicas did not converge within %v:\n%s", within, strings.Join(last, "\n"))
}

// waitHealthy waits until the front door routes to exactly n replicas.
func waitHealthy(t *testing.T, c *cluster, n int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for len(c.front.Healthy()) != n {
		if time.Now().After(deadline) {
			t.Fatalf("front door healthy=%v, want %d replicas", c.front.Healthy(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func hasPair(snapshot, pair string) bool {
	for _, p := range strings.Split(snapshot, ",") {
		if p == pair {
			return true
		}
	}
	return false
}

// TestClusterConvergesThroughFront is the basic service-plane path: three
// replica processes behind the front door, client operations spread over
// sessions, every replica converging to the same state containing every
// update.
func TestClusterConvergesThroughFront(t *testing.T) {
	c := newCluster(t, 3)
	const updates = 30
	want := make(map[string]string, updates)
	for i := 0; i < updates; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if err := c.update(fmt.Sprintf("session-%d", i%7), "set "+k+" "+v); err != nil {
			t.Fatalf("update %d failed: %v", i, err)
		}
	}
	waitConverged(t, c.nodes, updates, want, 30*time.Second)
}

// TestSessionAffinity: the same session sticks to the same replica while the
// replica set is stable.
func TestSessionAffinity(t *testing.T) {
	c := newCluster(t, 3)
	// Wait until all replicas are registered and healthy.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.front.Healthy()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never all healthy: %v", c.front.Healthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, session := range []string{"alpha", "beta", "gamma", "delta"} {
		var first string
		for i := 0; i < 5; i++ {
			req, _ := http.NewRequest(http.MethodPost, c.front.URL()+"/update?cmd=set+s+1", nil)
			req.Header.Set("X-Session", session)
			resp, err := testClient.Do(req)
			if err != nil {
				t.Fatalf("session %s: %v", session, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			got := resp.Header.Get("X-Replica")
			if got == "" {
				t.Fatalf("session %s: no X-Replica header", session)
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Fatalf("session %s bounced from replica %s to %s with a stable replica set", session, first, got)
			}
		}
	}
}

// TestGracefulShutdownZeroFailedOps is the rolling-restart guarantee: while a
// client streams operations through the front door, one replica shuts down
// gracefully — deregisters, drains, flushes replication, stops. The client
// must see ZERO failed operations, and the surviving replicas must converge
// on every accepted update, including those the departing replica accepted
// just before leaving.
func TestGracefulShutdownZeroFailedOps(t *testing.T) {
	c := newCluster(t, 3)
	const updates = 120
	want := make(map[string]string, updates)
	for i := 0; i < updates; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if err := c.update(fmt.Sprintf("s%d", i%11), "set "+k+" "+v); err != nil {
			t.Fatalf("op %d FAILED during rolling shutdown (want zero failures): %v", i, err)
		}
		if i == updates/2 {
			// Mid-stream: replica 3 leaves gracefully.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := c.nodes[2].Shutdown(ctx); err != nil {
				t.Fatalf("graceful shutdown: %v", err)
			}
			cancel()
			c.nodes = c.nodes[:2]
		}
	}
	if healthy := c.front.Healthy(); len(healthy) != 2 {
		t.Errorf("front door still routes to %v, want 2 replicas after deregistration", healthy)
	}
	waitConverged(t, c.nodes, updates, want, 30*time.Second)
}

// TestKillRestartConvergesThroughFront is the crash half of the service
// plane's fault story: a replica dies WITHOUT deregistering — health probes
// must evict it (operations keep succeeding via failover) — then comes back
// under the same identity and transport address. The transport's redial loop
// heals the mesh, the retransmission layer recovers what the outage lost,
// promote traffic rebuilds the restarted replica's state, and all three
// replicas converge on every update of all three phases.
func TestKillRestartConvergesThroughFront(t *testing.T) {
	c := newCluster(t, 3)
	want := make(map[string]string)
	phase := func(tag string, count int) {
		for i := 0; i < count; i++ {
			k, v := fmt.Sprintf("%s%d", tag, i), fmt.Sprintf("v%d", i)
			want[k] = v
			var err error
			for attempt := 0; attempt < 50; attempt++ {
				// During the un-evicted crash window a forward can land on the
				// dead replica; the front door fails over transparently, but
				// allow brief retries for the probe loop to catch up.
				if err = c.update(fmt.Sprintf("s%d", i%5), "set "+k+" "+v); err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("phase %s op %d: %v", tag, i, err)
			}
		}
	}
	phase("a", 20)

	c.nodes[1].Kill() // replica 2 crashes; no deregistration
	// Health probes must evict it.
	deadline := time.Now().Add(10 * time.Second)
	for len(c.front.Healthy()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("crashed replica never evicted; healthy=%v", c.front.Healthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	phase("b", 20)

	c.nodes[1] = c.startNode(t, 2) // same ID, same transport address
	deadline = time.Now().Add(10 * time.Second)
	for len(c.front.Healthy()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never rejoined; healthy=%v", c.front.Healthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	phase("c", 20)

	waitConverged(t, c.nodes, 60, want, 60*time.Second)
}
