package sim

import (
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
)

// fakeLayer is a scriptable NetworkModel for composition tests: fixed delay,
// optional drop schedule, and a record of every call it sees.
type fakeLayer struct {
	delay    model.Time
	dropAt   map[int]bool // call index → drop
	calls    int
	seeds    []int64
	observed LeaderObservation
	validate error
}

func (f *fakeLayer) Reset(seed int64) { f.seeds = append(f.seeds, seed) }

func (f *fakeLayer) Validate(int) error { return f.validate }

func (f *fakeLayer) ObserveLeadership(obs LeaderObservation) { f.observed = obs }

func (f *fakeLayer) Delay(_, _ model.ProcID, _ model.Time) (model.Time, bool) {
	drop := f.dropAt[f.calls]
	f.calls++
	return f.delay, !drop
}

func TestComposeNetworksDelaysAddDeliveryUnanimous(t *testing.T) {
	a := &fakeLayer{delay: 5, dropAt: map[int]bool{1: true}}
	b := &fakeLayer{delay: 7}
	c := ComposeNetworks(a, b)
	c.Reset(9)
	if d, ok := c.Delay(1, 2, 0); d != 12 || !ok {
		t.Errorf("Delay = (%d, %v), want (12, true)", d, ok)
	}
	if d, ok := c.Delay(1, 2, 0); d != 12 || ok {
		t.Errorf("dropped message: Delay = (%d, %v), want (12, false): delays still add, delivery needs unanimity", d, ok)
	}
	// Every layer is consulted even after an earlier layer drops: stream
	// independence is the property that lets layers be added without
	// reshuffling their neighbors' schedules.
	if a.calls != 2 || b.calls != 2 {
		t.Errorf("layer call counts a=%d b=%d, want 2 and 2", a.calls, b.calls)
	}
}

func TestComposeNetworksSeedsDecorrelated(t *testing.T) {
	a, b := &fakeLayer{}, &fakeLayer{}
	ComposeNetworks(a, b).Reset(42)
	if len(a.seeds) != 1 || len(b.seeds) != 1 {
		t.Fatalf("each layer must be reset exactly once: %v %v", a.seeds, b.seeds)
	}
	if a.seeds[0] != 42 {
		t.Errorf("first layer seed %d, want the run seed 42 (single-layer parity)", a.seeds[0])
	}
	if b.seeds[0] == 42 {
		t.Error("second layer got the raw run seed: identical stacked models would shadow each other's draws")
	}
	// Derivation is a pure function: same run seed, same layer seeds.
	a2, b2 := &fakeLayer{}, &fakeLayer{}
	ComposeNetworks(a2, b2).Reset(42)
	if a2.seeds[0] != a.seeds[0] || b2.seeds[0] != b.seeds[0] {
		t.Error("per-layer seed derivation is not deterministic")
	}
}

func TestComposeNetworksValidateAndForwarding(t *testing.T) {
	bad := &fakeLayer{validate: errFake}
	if err := ValidateNetwork(ComposeNetworks(&fakeLayer{}, bad), 4); err == nil || !strings.Contains(err.Error(), "layer 1") {
		t.Errorf("composite validation error %v must name the failing layer", err)
	}
	if err := ValidateNetwork(&ComposedNetwork{}, 4); err == nil {
		t.Error("zero layers must fail validation")
	}
	if single := ComposeNetworks(&fakeLayer{}); single == nil {
		t.Error("single layer must be returned unwrapped")
	} else if _, ok := single.(*ComposedNetwork); ok {
		t.Error("single layer must not be wrapped")
	}

	aware, blind := &fakeLayer{}, &fakeLayer{}
	c := ComposeNetworks(aware, blind).(*ComposedNetwork)
	// Only layers implementing LeaderAware receive the observation; fakeLayer
	// implements it, so both do here — the real mixed case is exercised by
	// the hostile preset, which stacks LeaderStarver over Lossy.
	c.ObserveLeadership(func(model.ProcID, model.Time) (model.ProcID, bool) { return 1, true })
	if aware.observed == nil || blind.observed == nil {
		t.Error("observation not forwarded to the layers")
	}
}

var errFake = &validationError{"fake layer rejects"}

type validationError struct{ msg string }

func (e *validationError) Error() string { return e.msg }

// TestKernelInstallsLeadershipObservation: sim.New must hand any LeaderAware
// network model an observation that answers with the Ω component of the
// run's detector history — including through a composite stack.
func TestKernelInstallsLeadershipObservation(t *testing.T) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaEventual(fp, 2, 500)
	layer := &fakeLayer{delay: 3}
	New(fp, det, nopFactory(), Options{Seed: 1, Network: func() NetworkModel {
		return ComposeNetworks(layer, &fakeLayer{delay: 1})
	}})
	if layer.observed == nil {
		t.Fatal("kernel did not install a leadership observation")
	}
	if l, ok := layer.observed(3, 100); !ok || l != 3 {
		t.Errorf("pre-stabilization observation = (%v, %v), want (p3, true): self-trust phase", l, ok)
	}
	if l, ok := layer.observed(3, 600); !ok || l != 2 {
		t.Errorf("post-stabilization observation = (%v, %v), want (p2, true)", l, ok)
	}
}

// nopFactory builds automata that do nothing (observation wiring happens at
// construction, no run needed).
func nopFactory() model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton { return nopAuto{} }
}

type nopAuto struct{}

func (nopAuto) Init(model.Context)                    {}
func (nopAuto) Tick(model.Context)                    {}
func (nopAuto) Recv(model.Context, model.ProcID, any) {}
func (nopAuto) Input(ctx model.Context, in any)       {}
