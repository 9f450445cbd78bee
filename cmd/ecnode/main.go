// Command ecnode runs the deployable service plane of the reproduction: the
// eventually consistent replicated service as real OS processes.
//
// Replica mode (default) boots one replica node (internal/node): the
// retransmit-wrapped ETOB stack over TCP, heartbeat Ω, HTTP API.
//
//	ecnode -id 1 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 \
//	       -http 127.0.0.1:8081 -front http://127.0.0.1:8080
//
// Front-door mode (-front-door) boots the load balancer (internal/lb):
//
//	ecnode -front-door -http 127.0.0.1:8080
//
// Both modes shut down gracefully on SIGINT/SIGTERM: a replica deregisters
// from its front door and drains in-flight HTTP before stopping its event
// loop, so rolling restarts cost clients nothing.
//
// Chaos mode wraps a replica's transport in the seeded live fault injector
// (runtime.FaultTransport): -chaos names a preset from the injector's
// vocabulary (lossy, lossy-burst, resets, hostile, hostile-partition) and
// -chaos-seed pins its deterministic fault schedule, so a whole cluster of
// ecnode processes can soak under reproducible network hostility:
//
//	ecnode -id 1 -peers ... -chaos lossy -chaos-seed 42
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/runtime"
	"repro/internal/smr"
)

func main() {
	var (
		frontDoor   = flag.Bool("front-door", false, "run the load-balancing front door instead of a replica")
		id          = flag.Int("id", 0, "replica ID (1..n)")
		peersFlag   = flag.String("peers", "", "replica transport mesh: id=host:port,... (every replica, self included)")
		httpAddr    = flag.String("http", "127.0.0.1:0", "HTTP listen address")
		front       = flag.String("front", "", "front door base URL to register with (replica mode)")
		consistency = flag.String("consistency", "eventual", "eventual|strong")
		machine     = flag.String("machine", "kv", "kv|counter")
		drainWait   = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		chaos       = flag.String("chaos", "", "fault-injection preset for the replica transport ("+strings.Join(runtime.FaultPresetNames(), "|")+")")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed pinning the chaos preset's deterministic fault schedule")
	)
	flag.Parse()

	if *frontDoor {
		runFront(*httpAddr)
		return
	}
	runReplica(*id, *peersFlag, *httpAddr, *front, *consistency, *machine, *drainWait, *chaos, *chaosSeed)
}

func runFront(addr string) {
	f, err := lb.New(lb.Config{Addr: addr, Logf: log.Printf})
	if err != nil {
		log.Fatalf("front door: %v", err)
	}
	log.Printf("front door serving on %s", f.URL())
	waitForSignal()
	log.Printf("front door: shutting down")
	f.Close()
}

func runReplica(id int, peersFlag, httpAddr, front, consistency, machine string, drain time.Duration, chaos string, chaosSeed int64) {
	if id < 1 {
		log.Fatal("replica mode needs -id >= 1")
	}
	peers, err := parsePeers(peersFlag)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}
	var fault *runtime.FaultConfig
	if chaos != "" {
		fc, ok := runtime.FaultPreset(chaos, chaosSeed)
		if !ok {
			log.Fatalf("unknown -chaos preset %q (have: %s)", chaos, strings.Join(runtime.FaultPresetNames(), ", "))
		}
		fault = &fc
	}
	var level core.Consistency
	switch consistency {
	case "eventual", "":
		level = core.Eventual
	case "strong":
		level = core.Strong
	default:
		log.Fatalf("unknown -consistency %q (eventual|strong)", consistency)
	}
	var factory smr.MachineFactory
	switch machine {
	case "kv", "":
		factory = smr.KVFactory
	case "counter":
		factory = smr.CounterFactory
	default:
		log.Fatalf("unknown -machine %q (kv|counter)", machine)
	}
	n, err := node.New(node.Config{
		ID:          model.ProcID(id),
		Peers:       peers,
		HTTPAddr:    httpAddr,
		Front:       front,
		Consistency: level,
		Machine:     factory,
		Fault:       fault,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatalf("replica %d: %v", id, err)
	}
	log.Printf("replica %d serving HTTP on %s (transport %s)", id, n.URL(), peers[model.ProcID(id)])
	waitForSignal()
	log.Printf("replica %d: draining and shutting down", id)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := n.Shutdown(ctx); err != nil {
		log.Printf("replica %d: shutdown: %v", id, err)
		os.Exit(1)
	}
}

// parsePeers parses "1=host:port,2=host:port,...".
func parsePeers(s string) (map[model.ProcID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -peers")
	}
	peers := make(map[model.ProcID]string)
	for _, part := range strings.Split(s, ",") {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not id=host:port", part)
		}
		pid, err := strconv.Atoi(idStr)
		if err != nil || pid < 1 {
			return nil, fmt.Errorf("bad replica ID %q", idStr)
		}
		if _, dup := peers[model.ProcID(pid)]; dup {
			return nil, fmt.Errorf("replica %d listed twice", pid)
		}
		peers[model.ProcID(pid)] = addr
	}
	return peers, nil
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
