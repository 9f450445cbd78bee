package runtime_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/smr"
	"repro/internal/trace"
)

func init() {
	// The replica stack's wire vocabulary: retransmission envelopes carrying
	// the ETOB protocol messages.
	runtime.RegisterWireType(retransmit.Data{})
	runtime.RegisterWireType(retransmit.Ack{})
	runtime.RegisterWireType(etob.UpdateMsg{})
	runtime.RegisterWireType(etob.PromoteMsg{})
}

// TestTCPTraceConformance is the service plane's conformance oracle in
// action: run the FULL Eventual replica stack (retransmit → ETOB → replicated
// KV machine) live over real TCP connections while recording every step's
// schedule into a StepLog, then replay the log through fresh automata from
// the SAME factory under the deterministic step discipline and demand
// identical emissions at every step. Any place the live path forks the
// automaton semantics — the wire codec mangling a causality graph, the live
// context leaking wall-clock state into a decision, goroutine interleaving
// bleeding into a handler — shows up as a divergent step.
func TestTCPTraceConformance(t *testing.T) {
	const n, updates = 3, 12
	log := &trace.StepLog{}
	factory := core.ReplicaStackWith(core.Eventual, core.StackOptions{Retransmit: &retransmit.Options{Seed: 7}})

	// Reserve loopback ports so every endpoint knows the full peer map.
	peers := make(map[model.ProcID]string, n)
	var reserved []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		peers[model.ProcID(i+1)] = ln.Addr().String()
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}

	procs := make([]*runtime.Proc, n)
	for i := 0; i < n; i++ {
		p := model.ProcID(i + 1)
		var tr *runtime.TCPTransport
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			tr, err = runtime.NewTCPTransport(runtime.TCPConfig{Self: p, Peers: peers})
			if err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("bind %v: %v", p, err)
		}
		procs[i] = runtime.NewProc(tr, factory, runtime.Options{StepLog: log})
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
			<-p.Done()
		}
	}()

	// Drive updates through different replicas, then wait for convergence.
	want := make(map[string]string, updates)
	for i := 0; i < updates; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if !procs[i%n].Submit(smr.Command{Cmd: "set " + k + " " + v}) {
			t.Fatalf("submit %d rejected", i)
		}
		time.Sleep(2 * time.Millisecond)
	}
	snapshot := func(p *runtime.Proc) (snap string, applied int) {
		p.Inspect(func(a model.Automaton) {
			r := core.UnwrapReplica(a)
			snap, applied = r.Snapshot(), r.AppliedCount()
		})
		return
	}
	converged := func() bool {
		ref, applied := snapshot(procs[0])
		if applied < updates || ref == "" {
			return false
		}
		for _, p := range procs[1:] {
			got, gotApplied := snapshot(p)
			if got != ref || gotApplied < updates {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			s1, _ := snapshot(procs[0])
			s2, _ := snapshot(procs[1])
			s3, _ := snapshot(procs[2])
			t.Fatalf("replicas did not converge over TCP:\n p1: %s\n p2: %s\n p3: %s", s1, s2, s3)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ref, _ := snapshot(procs[0])
	for k, v := range want {
		if wantPair := k + "=" + v; !containsPair(ref, wantPair) {
			t.Fatalf("converged snapshot %q missing %q", ref, wantPair)
		}
	}

	// Freeze the log: stop every process before replaying.
	for _, p := range procs {
		p.Stop()
		<-p.Done()
	}
	if log.Len() == 0 {
		t.Fatal("no steps recorded")
	}

	// The oracle: the recorded schedule, replayed deterministically through
	// the same factory, must reproduce every emission.
	if err := runtime.Replay(n, factory, log); err != nil {
		t.Fatalf("live run does not conform to the deterministic kernel semantics:\n%v", err)
	}
}

func containsPair(snapshot, pair string) bool {
	for len(snapshot) > 0 {
		i := 0
		for i < len(snapshot) && snapshot[i] != ',' {
			i++
		}
		if snapshot[:i] == pair {
			return true
		}
		if i == len(snapshot) {
			break
		}
		snapshot = snapshot[i+1:]
	}
	return false
}
