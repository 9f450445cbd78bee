package node_test

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/consensus"
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

// unregistered has no wire form.
type unregistered struct{ X int }

// TestStackWireTypesRegistered runs each replica stack node builds
// (retransmit-wrapped, as node.New wraps it) in the simulator, collects every
// payload type the stack sends, and requires each to survive the TCP
// transport's frame codec unchanged, and to encode to the same bytes every
// time. A type without a registered wire form is a frame the TCP writer
// drops on every send; the codec must refuse it at encode, by name.
func TestStackWireTypesRegistered(t *testing.T) {
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
			if c == core.Strong {
				// A promise with several instances: its map must be written
				// in a fixed order for its bytes to repeat.
				accepted := make(map[int]consensus.BallotValue)
				for i := range 16 {
					accepted[i*7%16] = consensus.BallotValue{Ballot: int64(i), Value: fmt.Sprint("v", i)}
				}
				obs.seen["promise16"] = retransmit.Data{Epoch: 1, Seq: 2, Base: 1,
					Payload: consensus.PromiseMsg{Ballot: 3, Accepted: accepted}}
			}
			// Frames compare by their printed form, in which a graph prints
			// its nodes and edges and maps print sorted.
			var stream bytes.Buffer
			dec := runtime.NewFrameDecoder(&stream)
			for _, key := range slices.Sorted(maps.Keys(obs.seen)) {
				sent := runtime.Frame{From: 1, To: 2, ID: 1, Payload: obs.seen[key]}
				b, err := runtime.AppendFrame(nil, sent)
				if err != nil {
					t.Fatalf("%s does not encode: %v", key, err)
				}
				for range 3 {
					if again, _ := runtime.AppendFrame(nil, sent); !bytes.Equal(again, b) {
						t.Fatalf("%s encodes to different bytes each time:\n%x\n%x", key, b, again)
					}
				}
				stream.Write(b)
				got, err := dec.Next()
				if err != nil {
					t.Fatalf("%s does not decode: %v", key, err)
				}
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", sent); g != w {
					t.Errorf("%s round trip changed the frame:\n got %s\nwant %s", key, g, w)
				}
			}
			for _, p := range []any{unregistered{X: 1}, retransmit.Data{Epoch: 1, Seq: 1, Payload: unregistered{X: 1}}} {
				_, err := runtime.AppendFrame(nil, runtime.Frame{From: 1, To: 2, Payload: p})
				if err == nil || !strings.Contains(err.Error(), "node_test.unregistered") {
					t.Errorf("encoding %+v: err = %v, want one naming node_test.unregistered", p, err)
				}
			}
		})
	}
}
