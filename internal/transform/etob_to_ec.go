package transform

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// ETOBToEC is Algorithm 2, T_ETOB→EC: it implements EC given any ETOB
// implementation. On proposeEC_ℓ(v), the process ETOB-broadcasts the pair
// (ℓ, v); on its local timeout it returns First(count_i) — the value of the
// first message of the form (count_i, ∗) in d_i — as the response to
// proposeEC_count, once such a message has been delivered.
type ETOBToEC struct {
	self  model.ProcID
	n     int
	inner ETOBProtocol

	count   int          // count_i
	d       []string     // mirror of the inner protocol's d_i
	decided map[int]bool // instances already responded to
	bseq    int          // per-process uniquifier for broadcast IDs
	driver  Driver       // optional closed-loop proposer

	// First(ℓ) cache. d_i changes only when the inner protocol emits a new
	// snapshot, but the local timeout polls First every tick; scanning (and
	// pair-decoding) the whole sequence per tick dominated the transformation
	// stacks. firstKnown memoizes First per instance for the CURRENT d_i,
	// filled by a single forward scan (scanned = resume point) that restarts
	// only when d_i changes within the scanned prefix; pairMemo caches
	// decodePair per message ID, which is stable across snapshots.
	firstKnown map[int]string
	scanned    int
	pairMemo   map[string]pairVal
}

type pairVal struct {
	inst int
	val  string
	ok   bool
}

// Driver supplies the next proposal in closed-loop runs, mirroring ec.Driver
// (kept separate so this package does not depend on internal/ec).
type Driver func(p model.ProcID, instance int) (value string, ok bool)

var (
	_ model.Automaton = (*ETOBToEC)(nil)
	_ ECProtocol      = (*ETOBToEC)(nil)
)

const layerETOBToEC = "etob->ec"

// NewETOBToEC wraps an ETOB implementation into an EC implementation.
// Proposals arrive as model.ProposeInput inputs or via Propose.
func NewETOBToEC(p model.ProcID, n int, inner ETOBProtocol) *ETOBToEC {
	return &ETOBToEC{
		self:       p,
		n:          n,
		inner:      inner,
		decided:    make(map[int]bool),
		firstKnown: make(map[int]string),
		pairMemo:   make(map[string]pairVal),
	}
}

// NewETOBToECDriven adds a Driver that proposes instance 1 at Init and
// instance ℓ+1 as soon as instance ℓ decides.
func NewETOBToECDriven(p model.ProcID, n int, inner ETOBProtocol, d Driver) *ETOBToEC {
	a := NewETOBToEC(p, n, inner)
	a.driver = d
	return a
}

// ETOBToECFactory builds the transformation over a fresh inner ETOB instance
// per process, with an optional driver (nil for input-driven runs).
func ETOBToECFactory(innerFactory func(p model.ProcID, n int) ETOBProtocol, d Driver) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		if d != nil {
			return NewETOBToECDriven(p, n, innerFactory(p, n), d)
		}
		return NewETOBToEC(p, n, innerFactory(p, n))
	}
}

func (a *ETOBToEC) ctx(outer model.Context) innerCtx {
	return innerCtx{outer: outer, layer: layerETOBToEC, onOutput: a.onInnerOutput}
}

// Init implements model.Automaton.
func (a *ETOBToEC) Init(ctx model.Context) {
	a.inner.Init(a.ctx(ctx))
	if a.driver != nil {
		if v, ok := a.driver(a.self, 1); ok {
			ctx.Output(model.ProposeInput{Instance: 1, Value: v})
			a.Propose(ctx, 1, v)
		}
	}
}

// Input implements model.Automaton.
func (a *ETOBToEC) Input(ctx model.Context, in any) {
	pi, ok := in.(model.ProposeInput)
	if !ok {
		return
	}
	a.Propose(ctx, pi.Instance, pi.Value)
}

// Propose implements ECProtocol: proposeEC_ℓ(v) → broadcastETOB((ℓ, v)).
func (a *ETOBToEC) Propose(ctx model.Context, instance int, value string) {
	a.count = instance
	a.bseq++
	a.inner.BroadcastETOB(a.ctx(ctx), encodePair(instance, value, a.self, a.bseq), nil)
}

// Recv implements model.Automaton.
func (a *ETOBToEC) Recv(ctx model.Context, from model.ProcID, payload any) {
	if m, ok := payload.(wrapped); ok && m.Layer == layerETOBToEC {
		a.inner.Recv(a.ctx(ctx), from, m.Inner)
	}
}

// Tick implements model.Automaton: the "local time out" of Algorithm 2.
func (a *ETOBToEC) Tick(ctx model.Context) {
	a.inner.Tick(a.ctx(ctx))
	a.maybeDecide(ctx)
}

func (a *ETOBToEC) maybeDecide(ctx model.Context) {
	if a.count == 0 || a.decided[a.count] {
		return
	}
	v, ok := a.first(a.count)
	if !ok {
		return
	}
	inst := a.count
	a.decided[inst] = true
	ctx.Output(model.Decision{Instance: inst, Value: v})
	if a.driver != nil {
		if nv, more := a.driver(a.self, inst+1); more {
			ctx.Output(model.ProposeInput{Instance: inst + 1, Value: nv})
			a.Propose(ctx, inst+1, nv)
		}
	}
}

// onInnerOutput mirrors the inner protocol's d_i, keeping the emitted Seq
// itself (it is read-only). The First cache survives when the new d_i keeps
// the whole scanned prefix; a shorter kept prefix means d_i reordered or
// dropped scanned messages (that is the "eventual" in ETOB), so the scan
// restarts from the front.
func (a *ETOBToEC) onInnerOutput(_ model.Context, v any) {
	if s, ok := v.(model.SeqSnapshot); ok {
		keep := model.CommonPrefix(a.d, s.Seq)
		a.d = s.Seq
		if keep < a.scanned {
			a.scanned = 0
			clear(a.firstKnown)
		}
	}
}

// first is the paper's First(ℓ): the value v of the first message of the
// form (ℓ, ∗) in d_i, or ok=false if none. The scan over d_i is resumed, not
// repeated: each snapshot is decoded at most once no matter how many ticks
// poll it.
func (a *ETOBToEC) first(instance int) (string, bool) {
	for a.scanned < len(a.d) {
		id := a.d[a.scanned]
		a.scanned++
		pv, ok := a.pairMemo[id]
		if !ok {
			pv.inst, pv.val, pv.ok = decodePair(id)
			a.pairMemo[id] = pv
		}
		if pv.ok {
			if _, seen := a.firstKnown[pv.inst]; !seen {
				a.firstKnown[pv.inst] = pv.val
			}
		}
	}
	v, ok := a.firstKnown[instance]
	return v, ok
}

// pairSep separates the fields of an encoded proposal message. It must
// differ from seqSep: pair-encoded IDs flow through sequence-encoded EC
// values when transformations are stacked (e.g. T_ETOB→EC over T_EC→ETOB).
const pairSep = "\x1e"

// encodePair encodes the ETOB message carrying a proposal (ℓ, v). The sender
// and a per-sender sequence number make distinct broadcasts distinct, as the
// TOB specification requires.
func encodePair(instance int, value string, p model.ProcID, seq int) string {
	return fmt.Sprintf("c%s%d%s%s%s%v.%d", pairSep, instance, pairSep, value, pairSep, p, seq)
}

// decodePair extracts (ℓ, v) from an encoded proposal message; ok=false for
// foreign messages.
func decodePair(id string) (instance int, value string, ok bool) {
	parts := strings.SplitN(id, pairSep, 4)
	if len(parts) != 4 || parts[0] != "c" {
		return 0, "", false
	}
	l, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, "", false
	}
	return l, parts[2], true
}
