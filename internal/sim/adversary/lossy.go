package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/sim"
)

// Lossy is a sim.NetworkModel with message loss: delivered messages see a
// uniform base delay in [Min, Max], but each message is dropped with its
// link's drop probability, and a drop can open a BURST that takes out the
// next messages on the same directed link too (losses cluster in practice:
// a flapping route or an overflowing queue kills runs of packets, not
// isolated ones).
//
// Per-link drop rates derive from the seed: link (from, to) gets a rate in
// [0, 2*Drop] (mean Drop across links), computed by hashing the seed with
// the link — so the rate map is a pure function of (seed, config), not of
// the order links are first used. Self-links (from == to) never lose: a
// process's messages to itself model local memory, not a wire.
//
// A raw Lossy network violates the paper's eventual-delivery assumption (§2)
// by design. Pair it with internal/retransmit.Wrap to restore eventual
// delivery end-to-end; see the package comment.
type Lossy struct {
	// Min and Max bound the base delay of delivered messages
	// (defaults 10 and 20 if both 0).
	Min, Max model.Time
	// Drop is the mean per-message drop probability across links, in [0, 1).
	Drop float64
	// Burst, when >= 2, makes each loss take out up to Burst consecutive
	// messages on that link (the burst length is drawn uniformly in
	// [1, Burst]). 0 or 1 means independent losses.
	Burst int

	seed      int64
	rng       *rand.Rand
	burstLeft map[linkKey]int
}

type linkKey struct{ from, to model.ProcID }

var _ sim.NetworkModel = (*Lossy)(nil)
var _ sim.NetworkValidator = (*Lossy)(nil)

// NewLossy returns a lossy model with mean drop probability drop over a
// default 10–20 tick base delay, with independent (non-burst) losses.
func NewLossy(drop float64) *Lossy { return &Lossy{Drop: drop} }

// Reset implements sim.NetworkModel.
func (l *Lossy) Reset(seed int64) {
	l.seed = seed
	l.rng = rand.New(rand.NewSource(seed))
	l.burstLeft = make(map[linkKey]int)
}

// Validate implements sim.NetworkValidator.
func (l *Lossy) Validate(int) error {
	if l.Drop < 0 || l.Drop >= 1 {
		return fmt.Errorf("sim: Lossy.Drop=%v outside [0, 1): a link losing everything can never deliver, retransmitted or not", l.Drop)
	}
	return nil
}

func (l *Lossy) base() (model.Time, model.Time) {
	min, max := l.Min, l.Max
	if min == 0 && max == 0 {
		min, max = 10, 20
	}
	if max < min {
		max = min
	}
	return min, max
}

// linkRate returns the directed link's drop probability in [0, 2*Drop],
// clamped to [0, 1): a pure function of (seed, from, to) via a splitmix-style
// integer hash, independent of call order.
func (l *Lossy) linkRate(from, to model.ProcID) float64 {
	x := model.Mix64(uint64(l.seed)*0x9e3779b97f4a7c15 + uint64(from)*0xbf58476d1ce4e5b9 + uint64(to)*0x94d049bb133111eb)
	r := 2 * l.Drop * float64(x>>11) / float64(1<<53)
	if r >= 1 {
		r = 0.999
	}
	return r
}

// Delay implements sim.NetworkModel. The base delay is drawn for every
// message — dropped or not — so with independent losses (Burst <= 1) the
// delay stream of surviving messages does not depend on which predecessors
// were lost. Burst mode trades that property away: starting a burst costs an
// extra draw and burst-suppressed messages skip the drop draw, shifting the
// stream — still fully deterministic per seed, just coupled to the loss
// pattern.
func (l *Lossy) Delay(from, to model.ProcID, _ model.Time) (model.Time, bool) {
	min, max := l.base()
	d := min
	if max > min {
		d += model.Time(l.rng.Int63n(int64(max-min) + 1))
	}
	if from == to || l.Drop <= 0 {
		return d, true
	}
	key := linkKey{from, to}
	if left := l.burstLeft[key]; left > 0 {
		l.burstLeft[key] = left - 1
		return 0, false
	}
	if l.rng.Float64() < l.linkRate(from, to) {
		if l.Burst >= 2 {
			l.burstLeft[key] = l.rng.Intn(l.Burst) // this drop + up to Burst-1 more
		}
		return 0, false
	}
	return d, true
}
