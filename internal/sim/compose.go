package sim

import (
	"fmt"

	"repro/internal/model"
)

// ComposedNetwork stacks NetworkModels into one environment: a message
// traverses every layer in order, its delays ADD, and it is delivered only if
// EVERY layer delivers it. Layering a Lossy drop model over an adversarial
// delay scheduler, for example, yields an environment that both aims delays
// at the protocol and loses messages — the composite presets ("hostile",
// "churn-lossy") in internal/sim/adversary are built this way.
//
// Semantics, layer by layer:
//
//   - Delay: every layer is consulted for every message, in order, against
//     the ORIGINAL send time (each layer models an independent property of
//     the one physical link, not a store-and-forward hop). Consulting a layer
//     even after an earlier layer dropped the message keeps each layer's PRNG
//     stream independent of its neighbors' decisions, so adding a layer never
//     reshuffles another layer's schedule.
//
//   - Reset: each layer is re-seeded with a distinct value derived from the
//     run seed (splitmix-style), so two layers of the same type cannot shadow
//     each other's draws.
//
//   - Validate: every layer's own validator runs; the composite additionally
//     rejects an empty layer list.
//
//   - Leadership: the composite implements LeaderAware and forwards the
//     kernel's observation to every layer that wants one, so a protocol-aware
//     layer (adversary.LeaderStarver) stays protocol-aware inside a stack.
//
// Admissibility composes the way the layers do: the sum of finite delays is
// finite, so a stack of always-deliver models is still an admissible §2
// environment; one lossy layer makes the whole stack lossy (pair it with
// internal/retransmit, as the NetworkModel contract describes).
type ComposedNetwork struct {
	Layers []NetworkModel
}

var _ NetworkModel = (*ComposedNetwork)(nil)
var _ NetworkValidator = (*ComposedNetwork)(nil)
var _ LeaderAware = (*ComposedNetwork)(nil)

// ComposeNetworks stacks the given layers into one NetworkModel. A single
// layer is returned unwrapped.
func ComposeNetworks(layers ...NetworkModel) NetworkModel {
	if len(layers) == 1 {
		return layers[0]
	}
	return &ComposedNetwork{Layers: layers}
}

// Validate implements NetworkValidator.
func (c *ComposedNetwork) Validate(n int) error {
	if len(c.Layers) == 0 {
		return fmt.Errorf("sim: ComposeNetworks of zero layers models no link at all")
	}
	for i, l := range c.Layers {
		if err := ValidateNetwork(l, n); err != nil {
			return fmt.Errorf("sim: composed layer %d: %w", i, err)
		}
	}
	return nil
}

// Reset implements NetworkModel: each layer gets its own seed stream derived
// from the run seed by layer position.
func (c *ComposedNetwork) Reset(seed int64) {
	for i, l := range c.Layers {
		l.Reset(deriveSeed(seed, i))
	}
}

// deriveSeed decorrelates per-layer seed streams with a splitmix64 step over
// (seed, layer index) — a pure function, so composites stay deterministic.
func deriveSeed(seed int64, layer int) int64 {
	if layer == 0 {
		return seed // the first layer keeps the run seed (single-layer parity)
	}
	x := uint64(seed) + uint64(layer)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// ObserveLeadership implements LeaderAware by forwarding to every layer that
// is itself leader-aware.
func (c *ComposedNetwork) ObserveLeadership(obs LeaderObservation) {
	for _, l := range c.Layers {
		if la, ok := l.(LeaderAware); ok {
			la.ObserveLeadership(obs)
		}
	}
}

// Delay implements NetworkModel: delays add, delivery requires unanimity.
func (c *ComposedNetwork) Delay(from, to model.ProcID, sendTime model.Time) (model.Time, bool) {
	var total model.Time
	deliver := true
	for _, l := range c.Layers {
		d, ok := l.Delay(from, to, sendTime)
		if d > 0 {
			total += d
		}
		if !ok {
			deliver = false
		}
	}
	return total, deliver
}
