package node_test

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/smr"
)

// payloadSampler keeps one sent payload per distinct (envelope, content)
// type pair.
type payloadSampler struct {
	sim.NopObserver
	seen map[string]any
}

func (o *payloadSampler) OnSend(_ model.Time, m sim.Message) {
	key := fmt.Sprintf("%T", m.Payload)
	if d, ok := m.Payload.(retransmit.Data); ok {
		key += "/" + fmt.Sprintf("%T", d.Payload)
	}
	if _, ok := o.seen[key]; !ok {
		o.seen[key] = m.Payload
	}
}

// TestStackWireTypesRegistered runs each replica stack node builds
// (retransmit-wrapped, as node.New wraps it) in the simulator, collects every
// payload type the stack sends, and requires each to survive the TCP
// transport's frame codec unchanged once RegisterProtocolTypes has run. A
// type the registration misses is a frame the TCP writer drops on every
// send.
func TestStackWireTypesRegistered(t *testing.T) {
	node.RegisterProtocolTypes()
	for _, c := range []core.Consistency{core.Eventual, core.Strong} {
		t.Run(c.String(), func(t *testing.T) {
			fp := model.NewFailurePattern(3)
			factory := core.ReplicaStackWith(c, core.StackOptions{Machine: smr.KVFactory,
				Retransmit: &retransmit.Options{Seed: 1, GiveUpTicks: node.DefaultGiveUpTicks}})
			k := sim.New(fp, fd.NewOmegaStable(fp, 1), factory, sim.Options{Seed: 1})
			obs := &payloadSampler{seen: make(map[string]any)}
			k.SetObserver(obs)
			for _, p := range model.Procs(3) {
				k.ScheduleInput(p, 20+model.Time(p), smr.Command{Cmd: fmt.Sprintf("set k%v %v", p, p)})
			}
			k.Run(3000)
			if len(obs.seen) < 3 {
				t.Fatalf("sampled only %v: the stack should send envelopes, acks and protocol messages", obs.seen)
			}
			// Every payload crosses one warmed connection stream twice: the
			// first pass carries its types' descriptors, the second only the
			// value. Frames compare by their printed form, in which a graph
			// prints its nodes and edges and maps print sorted.
			var buf bytes.Buffer
			enc, dec := runtime.NewFrameEncoder(&buf), runtime.NewFrameDecoder(&buf)
			for _, key := range slices.Sorted(maps.Keys(obs.seen)) {
				sent := runtime.Frame{From: 1, To: 2, ID: 1, Payload: obs.seen[key]}
				for pass := 1; pass <= 2; pass++ {
					if err := enc.Append(sent); err != nil {
						t.Fatalf("%s does not encode (pass %d): %v", key, pass, err)
					}
					got, err := dec.Next()
					if err != nil {
						t.Fatalf("%s does not decode (pass %d): %v", key, pass, err)
					}
					if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", sent); g != w {
						t.Errorf("%s round trip (pass %d) changed the frame:\n got %s\nwant %s", key, pass, g, w)
					}
				}
			}
		})
	}
}
