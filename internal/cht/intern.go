package cht

import (
	"strconv"

	"repro/internal/model"
)

// Interner maps the reduction's canonical strings and composite values to
// dense int32 IDs, so the simulation-tree engine computes over integers and
// the canonical strings survive only at trace/debug boundaries (node
// encodings for the deterministic enumeration order, logs, and tests).
//
// Four spaces are interned, each append-only:
//
//   - algorithm states (the Algorithm interface's canonical state strings),
//     with an optional per-ID cache of the StructuredAlgorithm decoded form;
//   - message payloads;
//   - whole messages (from, to, payload-ID) — an edge stores one int32;
//   - whole configurations (state IDs, buffer of message IDs, decided bits,
//     invoked/responded counters), deduplicated by FNV hash + full equality,
//     so the tree's node key is a pair of integers instead of a rebuilt
//     fmt-formatted string per visit.
//
// An Interner is single-threaded, like the engine that owns it; concurrent
// sweeps give every cell its own engine.
type Interner struct {
	stateIDs map[string]int32
	states   []string
	decoded  []any // decoded[i]: cached structured form of states[i], or nil

	payloadIDs map[string]int32
	payloads   []string

	msgIDs map[internedMsg]int32
	msgs   []internedMsg

	cfgBuckets map[uint64][]int32
	cfgs       []frozenConfig

	// Slabs backing frozenConfig slices: freezing a configuration appends to
	// these and re-slices, so n small allocations per unique configuration
	// become amortized slab growth.
	stateSlab []int32
	bufSlab   []int32
	decSlab   []uint8
	cntSlab   []int32
}

// internedMsg is a SimMsg with its payload replaced by an interned ID; it is
// the comparable map key and the stored message representation.
type internedMsg struct {
	From, To model.ProcID
	Payload  int32
}

// frozenConfig is an immutable interned configuration. The slices alias the
// interner's slabs; they are never mutated after interning.
type frozenConfig struct {
	states    []int32 // states[p-1]: interned state ID
	buffer    []int32 // message IDs, canonically sorted (To, From, payload string)
	decided   []uint8 // decided[k-1]: bit0/bit1 = value 0/1 returned to proposeEC_k
	invoked   []int32 // invoked[p-1]: highest instance p has invoked
	responded []int32 // responded[p-1]: highest instance p has responded to
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		stateIDs:   make(map[string]int32),
		payloadIDs: make(map[string]int32),
		msgIDs:     make(map[internedMsg]int32),
		cfgBuckets: make(map[uint64][]int32),
	}
}

// State interns an algorithm state string.
func (in *Interner) State(s string) int32 {
	id, _ := in.stateIntern(s)
	return id
}

// stateIntern interns a state string and reports whether it was new — the
// engine uses freshness to install the StructuredAlgorithm decoded form
// without a second lookup.
func (in *Interner) stateIntern(s string) (int32, bool) {
	if id, ok := in.stateIDs[s]; ok {
		return id, false
	}
	id := int32(len(in.states))
	in.stateIDs[s] = id
	in.states = append(in.states, s)
	in.decoded = append(in.decoded, nil)
	return id, true
}

// StateString returns the canonical string of a state ID.
func (in *Interner) StateString(id int32) string { return in.states[id] }

// Payload interns a message payload string.
func (in *Interner) Payload(s string) int32 {
	if id, ok := in.payloadIDs[s]; ok {
		return id
	}
	id := int32(len(in.payloads))
	in.payloadIDs[s] = id
	in.payloads = append(in.payloads, s)
	return id
}

// Msg interns a simulated message.
func (in *Interner) Msg(m SimMsg) int32 {
	key := internedMsg{From: m.From, To: m.To, Payload: in.Payload(m.Payload)}
	if id, ok := in.msgIDs[key]; ok {
		return id
	}
	id := int32(len(in.msgs))
	in.msgIDs[key] = id
	in.msgs = append(in.msgs, key)
	return id
}

// MsgValue reconstructs the SimMsg of a message ID (trace/debug boundary).
func (in *Interner) MsgValue(id int32) SimMsg {
	m := in.msgs[id]
	return SimMsg{From: m.From, To: m.To, Payload: in.payloads[m.Payload]}
}

// msgMeta returns the stored (from, to, payload-ID) triple without
// materializing payload strings.
func (in *Interner) msgMeta(id int32) internedMsg { return in.msgs[id] }

// msgLess is the canonical buffer order — (To, From, payload string) — the
// same order the string engine's sortBuffer used, expressed over IDs.
func (in *Interner) msgLess(a, b int32) bool {
	ma, mb := in.msgs[a], in.msgs[b]
	if ma.To != mb.To {
		return ma.To < mb.To
	}
	if ma.From != mb.From {
		return ma.From < mb.From
	}
	if ma.Payload == mb.Payload {
		return false
	}
	return in.payloads[ma.Payload] < in.payloads[mb.Payload]
}

// hashConfig computes an FNV-1a hash over a working configuration.
func hashConfig(states, buffer []int32, decided []uint8, invoked, responded []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix32 := func(v int32) {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	for _, v := range states {
		mix32(v)
	}
	h ^= 0xfe
	h *= prime64
	for _, v := range buffer {
		mix32(v)
	}
	h ^= 0xfe
	h *= prime64
	for _, v := range decided {
		h ^= uint64(v)
		h *= prime64
	}
	h ^= 0xfe
	h *= prime64
	for _, v := range invoked {
		mix32(v)
	}
	for _, v := range responded {
		mix32(v)
	}
	return h
}

// Config interns a working configuration, returning its dense ID and whether
// it was new. The caller's slices are copied into the interner's slabs only
// on a miss; a hit costs the hash plus one integer-slice comparison per
// bucket candidate.
func (in *Interner) Config(states, buffer []int32, decided []uint8, invoked, responded []int32) (id int32, fresh bool) {
	h := hashConfig(states, buffer, decided, invoked, responded)
	for _, cand := range in.cfgBuckets[h] {
		c := &in.cfgs[cand]
		if eqI32(c.states, states) && eqI32(c.buffer, buffer) && eqU8(c.decided, decided) &&
			eqI32(c.invoked, invoked) && eqI32(c.responded, responded) {
			return cand, false
		}
	}
	id = int32(len(in.cfgs))
	in.cfgs = append(in.cfgs, frozenConfig{
		states:    in.freezeI32(&in.stateSlab, states),
		buffer:    in.freezeI32(&in.bufSlab, buffer),
		decided:   in.freezeU8(&in.decSlab, decided),
		invoked:   in.freezeI32(&in.cntSlab, invoked),
		responded: in.freezeI32(&in.cntSlab, responded),
	})
	in.cfgBuckets[h] = append(in.cfgBuckets[h], id)
	return id, true
}

// ConfigValue returns the frozen configuration of an ID (do not modify).
func (in *Interner) ConfigValue(id int32) *frozenConfig { return &in.cfgs[id] }

func (in *Interner) freezeI32(slab *[]int32, src []int32) []int32 {
	s := append(*slab, src...)
	*slab = s
	return s[len(s)-len(src) : len(s) : len(s)]
}

func (in *Interner) freezeU8(slab *[]uint8, src []uint8) []uint8 {
	s := append(*slab, src...)
	*slab = s
	return s[len(s)-len(src) : len(s) : len(s)]
}

func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqU8(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// encodeConfig renders the canonical configuration string, byte-identical to
// the string engine's config.encode: states joined with '|', then the sorted
// buffer as "from>to:payload;" triples, the decided bitmask digits, and the
// "invoked.responded," counters, with '#' between the four sections. It is
// called once per unique tree node (for the deterministic enumeration order
// and debugging), not per simulated step.
func (in *Interner) encodeConfig(c *frozenConfig, dst []byte) []byte {
	for i, st := range c.states {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, in.states[st]...)
	}
	dst = append(dst, '#')
	for _, mid := range c.buffer {
		m := in.msgs[mid]
		dst = strconv.AppendInt(dst, int64(m.From), 10)
		dst = append(dst, '>')
		dst = strconv.AppendInt(dst, int64(m.To), 10)
		dst = append(dst, ':')
		dst = append(dst, in.payloads[m.Payload]...)
		dst = append(dst, ';')
	}
	dst = append(dst, '#')
	for _, d := range c.decided {
		dst = strconv.AppendUint(dst, uint64(d), 10)
	}
	dst = append(dst, '#')
	for i := range c.invoked {
		dst = strconv.AppendInt(dst, int64(c.invoked[i]), 10)
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, int64(c.responded[i]), 10)
		dst = append(dst, ',')
	}
	return dst
}
