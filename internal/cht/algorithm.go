package cht

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fd"
	"repro/internal/model"
)

// SimMsg is a message of the simulated algorithm A in transit.
type SimMsg struct {
	From, To model.ProcID
	Payload  string
}

func (m SimMsg) String() string {
	return fmt.Sprintf("%v->%v:%s", m.From, m.To, m.Payload)
}

// Decided is a response of the simulated algorithm: process returned Value
// to proposeEC_Instance.
type Decided struct {
	Instance int
	Value    int // 0 or 1
}

// Algorithm is a deterministic algorithm A solving (eventual) consensus with
// some failure detector D, in the form the simulation tree can execute
// exhaustively: states are canonical strings, steps are pure functions.
type Algorithm interface {
	// Name identifies the algorithm in logs.
	Name() string
	// MaxInstance is the number of consensus instances simulated (the L cap;
	// the paper's construction is unbounded, and a finite simulation needs
	// a cap).
	MaxInstance() int
	// InitState is the state of process p before it invokes proposeEC_1.
	InitState(p model.ProcID, n int) string
	// Invoke applies proposeEC_instance(value) to the state, returning the
	// new state and messages to send.
	Invoke(p model.ProcID, n int, state string, instance, value int) (string, []SimMsg)
	// Step applies one atomic step: receive m (nil = λ), see detector value
	// d, transition, send messages, possibly return responses.
	Step(p model.ProcID, n int, state string, m *SimMsg, d any) (string, []SimMsg, []Decided)
}

// StructuredAlgorithm is an optional Algorithm fast path for the interned
// simulation-tree engine. The string methods (Step, Invoke) remain the
// reference implementation — canonical state strings define node identity and
// the deterministic enumeration order — but stepping through them costs a
// full decode/encode round-trip per simulated step. An algorithm that also
// implements StructuredAlgorithm lets the engine keep one decoded state per
// interned state ID and step on it directly: DecodeState runs at most once
// per distinct state ever reached (and not at all for states produced by
// StepStructured, whose structured result is cached under the new ID), and
// EncodeState runs only when a step actually changed the state.
//
// Contract (pinned by TestStructuredMatchesStringPath): for every reachable
// state s, StepStructured(p, n, DecodeState(n, s), m, d) must agree with
// Step(p, n, s, m, d) — same messages, same responses, and EncodeState of the
// structured result must equal the string result byte-for-byte. The
// structured state passed in MUST be treated as immutable: it is shared by
// every tree node holding that state ID, so a changing step returns a fresh
// value (copy-on-write) instead of mutating in place.
type StructuredAlgorithm interface {
	Algorithm
	// DecodeState parses a canonical state string into its structured form.
	DecodeState(n int, state string) any
	// EncodeState renders the canonical string of a structured state,
	// byte-identical to what the string path would have produced.
	EncodeState(st any) string
	// StepStructured applies one atomic step to the immutable structured
	// state, returning the successor (aliasing st if changed == false), the
	// messages sent, and any responses.
	StepStructured(p model.ProcID, n int, st any, m *SimMsg, d any) (next any, changed bool, sends []SimMsg, decs []Decided)
}

// EC4 is Algorithm 4 (EC from Ω) in simulatable form — the algorithm A the
// extraction is demonstrated on, with D the Ω detector itself (the identity
// case of "if D implements EC, Ω is extractable from D").
//
// State encoding: "c<count>/d<decidedUpTo>/r<recv>" where recv lists
// proc:inst:val triples sorted lexicographically.
type EC4 struct {
	L int
}

var (
	_ Algorithm           = (*EC4)(nil)
	_ StructuredAlgorithm = (*EC4)(nil)
)

// NewEC4 returns the Algorithm 4 simulator capped at maxInstance instances.
func NewEC4(maxInstance int) *EC4 {
	if maxInstance < 1 {
		maxInstance = 1
	}
	return &EC4{L: maxInstance}
}

// Name implements Algorithm.
func (a *EC4) Name() string { return "Algorithm4-EC-from-Omega" }

// MaxInstance implements Algorithm.
func (a *EC4) MaxInstance() int { return a.L }

type ec4State struct {
	count   int
	decided int            // instances 1..decided have been responded to
	recv    map[string]int // "q:inst" → value
}

func (a *EC4) decode(s string) ec4State {
	st := ec4State{recv: make(map[string]int)}
	parts := strings.Split(s, "/")
	for _, part := range parts {
		switch {
		case strings.HasPrefix(part, "c"):
			st.count, _ = strconv.Atoi(part[1:])
		case strings.HasPrefix(part, "d"):
			st.decided, _ = strconv.Atoi(part[1:])
		case strings.HasPrefix(part, "r") && len(part) > 1:
			for _, ent := range strings.Split(part[1:], ",") {
				kv := strings.Split(ent, "=")
				if len(kv) == 2 {
					v, _ := strconv.Atoi(kv[1])
					st.recv[kv[0]] = v
				}
			}
		}
	}
	return st
}

func (a *EC4) encode(st ec4State) string {
	keys := make([]string, 0, len(st.recv))
	for k := range st.recv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ents := make([]string, 0, len(keys))
	for _, k := range keys {
		ents = append(ents, fmt.Sprintf("%s=%d", k, st.recv[k]))
	}
	return fmt.Sprintf("c%d/d%d/r%s", st.count, st.decided, strings.Join(ents, ","))
}

// InitState implements Algorithm.
func (a *EC4) InitState(model.ProcID, int) string {
	return a.encode(ec4State{recv: make(map[string]int)})
}

// Invoke implements Algorithm: count := ℓ; send promote(v, ℓ) to all.
func (a *EC4) Invoke(p model.ProcID, n int, state string, instance, value int) (string, []SimMsg) {
	st := a.decode(state)
	st.count = instance
	payload := fmt.Sprintf("%d:%d", instance, value)
	msgs := make([]SimMsg, 0, n)
	for _, q := range model.Procs(n) {
		msgs = append(msgs, SimMsg{From: p, To: q, Payload: payload})
	}
	return a.encode(st), msgs
}

// Step implements Algorithm.
func (a *EC4) Step(p model.ProcID, n int, state string, m *SimMsg, d any) (string, []SimMsg, []Decided) {
	st := a.decode(state)
	if m != nil {
		// promote(v, ℓ) from m.From.
		var inst, val int
		if _, err := fmt.Sscanf(m.Payload, "%d:%d", &inst, &val); err == nil {
			key := fmt.Sprintf("%v:%d", m.From, inst)
			if _, dup := st.recv[key]; !dup {
				st.recv[key] = val
			}
		}
		return a.encode(st), nil, nil
	}
	// λ-step = local timeout: decide if the current leader's value arrived.
	if st.count == 0 || st.decided >= st.count {
		return state, nil, nil
	}
	leader, ok := fd.LeaderOf(d)
	if !ok {
		return state, nil, nil
	}
	v, have := st.recv[fmt.Sprintf("%v:%d", leader, st.count)]
	if !have {
		return state, nil, nil
	}
	st.decided = st.count
	return a.encode(st), nil, []Decided{{Instance: st.count, Value: v}}
}

// ---------------------------------------------------------------------------
// StructuredAlgorithm fast path
// ---------------------------------------------------------------------------

// ec4Recv is one received promote, keyed "p<q>:<inst>" like the canonical
// string encoding.
type ec4Recv struct {
	key string
	val int
}

// ec4Struct is EC4's structured state: the same data as ec4State, but with
// the received promotes as a key-sorted slice, so EncodeState is a linear
// append and lookups need no map. Values are shared between tree nodes and
// MUST NOT be mutated; changing steps rebuild the slice (copy-on-write).
type ec4Struct struct {
	count   int
	decided int
	recv    []ec4Recv // sorted by key
}

func (s ec4Struct) find(key string) (int, bool) {
	lo, hi := 0, len(s.recv)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.recv[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.recv) && s.recv[lo].key == key {
		return s.recv[lo].val, true
	}
	return 0, false
}

// insert returns a fresh sorted slice with (key, val) added; the receiver's
// slice is left untouched.
func (s ec4Struct) insert(key string, val int) []ec4Recv {
	out := make([]ec4Recv, 0, len(s.recv)+1)
	i := 0
	for ; i < len(s.recv) && s.recv[i].key < key; i++ {
		out = append(out, s.recv[i])
	}
	out = append(out, ec4Recv{key: key, val: val})
	return append(out, s.recv[i:]...)
}

// DecodeState implements StructuredAlgorithm.
func (a *EC4) DecodeState(_ int, state string) any {
	st := a.decode(state)
	out := ec4Struct{count: st.count, decided: st.decided}
	if len(st.recv) > 0 {
		out.recv = make([]ec4Recv, 0, len(st.recv))
		for k, v := range st.recv {
			out.recv = append(out.recv, ec4Recv{key: k, val: v})
		}
		sort.Slice(out.recv, func(i, j int) bool { return out.recv[i].key < out.recv[j].key })
	}
	return out
}

// EncodeState implements StructuredAlgorithm, byte-identical to encode.
func (a *EC4) EncodeState(v any) string {
	st := v.(ec4Struct)
	b := make([]byte, 0, 16+16*len(st.recv))
	b = append(b, 'c')
	b = strconv.AppendInt(b, int64(st.count), 10)
	b = append(b, '/', 'd')
	b = strconv.AppendInt(b, int64(st.decided), 10)
	b = append(b, '/', 'r')
	for i, e := range st.recv {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e.key...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(e.val), 10)
	}
	return string(b)
}

// parsePromote parses the "inst:val" payload without fmt, with the same
// acceptance as the reference path's fmt.Sscanf(payload, "%d:%d"): %d skips
// leading spaces and reads an optional sign plus digits, ':' must match
// exactly, and trailing content after the second number is ignored (Sscanf
// does not require consuming the whole input). Keeping the two parsers
// agreeing on every payload — not just EC4's own "%d:%d" ones — is part of
// the StructuredAlgorithm equivalence contract.
func parsePromote(payload string) (inst, val int, ok bool) {
	inst, rest, ok := parseLeadingInt(payload)
	if !ok || len(rest) == 0 || rest[0] != ':' {
		return 0, 0, false
	}
	val, _, ok = parseLeadingInt(rest[1:])
	if !ok {
		return 0, 0, false
	}
	return inst, val, true
}

// parseLeadingInt consumes optional spaces, an optional sign, and a digit
// run, returning the value and the unconsumed remainder (the %d verb's input
// behavior).
func parseLeadingInt(s string) (v int, rest string, ok bool) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	start := i
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == digits {
		return 0, s, false
	}
	v, err := strconv.Atoi(s[start:i])
	if err != nil {
		return 0, s, false
	}
	return v, s[i:], true
}

// recvKey builds the canonical "p<q>:<inst>" key.
func recvKey(q model.ProcID, inst int) string {
	b := make([]byte, 0, 8)
	b = append(b, 'p')
	b = strconv.AppendInt(b, int64(q), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(inst), 10)
	return string(b)
}

// StepStructured implements StructuredAlgorithm: the same transition as Step,
// computed without the decode/encode round-trip. Unchanged steps (duplicate
// promotes, premature timeouts) alias the input state and report changed ==
// false, so the engine reuses the parent's interned state ID untouched.
func (a *EC4) StepStructured(p model.ProcID, n int, v any, m *SimMsg, d any) (any, bool, []SimMsg, []Decided) {
	st := v.(ec4Struct)
	if m != nil {
		inst, val, ok := parsePromote(m.Payload)
		if !ok {
			return v, false, nil, nil
		}
		key := recvKey(m.From, inst)
		if _, dup := st.find(key); dup {
			return v, false, nil, nil
		}
		next := st
		next.recv = st.insert(key, val)
		return next, true, nil, nil
	}
	if st.count == 0 || st.decided >= st.count {
		return v, false, nil, nil
	}
	leader, ok := fd.LeaderOf(d)
	if !ok {
		return v, false, nil, nil
	}
	val, have := st.find(recvKey(leader, st.count))
	if !have {
		return v, false, nil, nil
	}
	next := st
	next.decided = st.count
	return next, true, nil, []Decided{{Instance: st.count, Value: val}}
}
