// Package smr implements replicated state machines over a total-order (or
// eventually-total-order) broadcast — the paper's motivating construction
// (§1): a deterministic service replicated over the processes, with all
// replicas applying the same command sequence.
//
// Over the paper's ETOB (internal/etob) the result is an EVENTUALLY
// consistent replicated service: during leader disagreement the delivered
// sequence of a replica may be reordered, and the replica then rebuilds its
// state from scratch (deterministic replay); after the ETOB stabilization
// time τ, sequences only grow and replicas converge — the paper's "replicas
// may diverge for a finite period". Over a strong TOB (internal/consensus)
// the same code yields a strongly consistent service.
//
// The replica keeps the last delivered d_i as a view, not a copy (an emitted
// model.SeqSnapshot.Seq is read-only), and finds the kept prefix with
// model.CommonPrefix, which is O(1) when both are views of one append-only
// array. So a delivery costs O(new commands), and a rebuild happens exactly
// when the new d_i does not keep all of the old one.
//
// Commands piggyback on broadcast message IDs ("<uniq>|<command>"), since
// the broadcast abstractions order opaque message identifiers.
package smr

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/model"
)

// StateMachine is a deterministic service: identical command sequences yield
// identical snapshots.
type StateMachine interface {
	// Apply executes one command and returns its response.
	Apply(cmd string) string
	// Snapshot returns a canonical encoding of the current state.
	Snapshot() string
}

// MachineFactory creates a fresh machine in its initial state (used both at
// startup and for deterministic replay after a reorder).
type MachineFactory func() StateMachine

// Command is the input that submits a command to the replicated service.
type Command struct {
	Cmd string
}

// Applied is output whenever the replica's machine state changes. It carries
// only the DELTA: the command IDs applied by this change, in order, and the
// total applied count after it — not the full sequence and not a snapshot.
// (It used to carry both, which made the output O(applied) per change and the
// whole run quadratic in ops; under sustained load that copying dominated
// everything. Observers that want the full sequence accumulate the
// deltas — a Rebuilt change restarts the accumulation — and ones that want
// the machine state ask the Replica.) Rebuilt reports whether the replica
// replayed from scratch because its delivered prefix changed (only possible
// before the ETOB stabilization time); the New of a rebuilt change is the
// entire re-applied sequence. New is a view of the delivered
// model.SeqSnapshot.Seq and, like it, read-only.
type Applied struct {
	New     []string
	Total   int
	Rebuilt bool
}

// EncodeCommand builds the broadcast message ID carrying cmd; uniq must be
// globally unique (the replica uses "<proc>.<seq>").
func EncodeCommand(uniq, cmd string) string { return uniq + "|" + cmd }

// DecodeCommand extracts the command from a broadcast message ID.
func DecodeCommand(id string) (string, bool) {
	i := strings.IndexByte(id, '|')
	if i < 0 {
		return "", false
	}
	return id[i+1:], true
}

// Replica runs a state machine over any broadcast automaton that consumes
// model.BroadcastInput and emits model.SeqSnapshot (etob.Automaton,
// consensus.Log, transform.ECToETOB, ...). The applied commands are always
// the inner protocol's last emitted Seq, held as a view: when the new Seq
// keeps all of it as a prefix the replica applies the rest, and only when it
// does not (a reorder, which ETOB allows only before τ) does it rebuild the
// machine and replay all of Seq.
//
// The replica hands the inner protocol the same intercepting context on
// every step, reset for the step (see ctx), so the inner protocol must not
// keep its Context past the step.
type Replica struct {
	self    model.ProcID
	inner   model.Automaton
	factory MachineFactory

	machine  StateMachine
	applied  []string // the inner protocol's last emitted d_i, all applied
	seq      int64
	idPrefix string // "<self>.": the uniq part of a command ID, before seq
	rebuilt  int
	rc       replicaCtx // the inner protocol's context, reset per step (see ctx)
}

var _ model.Automaton = (*Replica)(nil)

// NewReplica wraps the broadcast automaton with a state machine.
func NewReplica(p model.ProcID, inner model.Automaton, factory MachineFactory) *Replica {
	return &Replica{self: p, inner: inner, factory: factory, machine: factory(), idPrefix: p.String() + "."}
}

// ReplicaFactory composes a broadcast factory with a machine factory.
func ReplicaFactory(broadcast model.AutomatonFactory, machine MachineFactory) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		return NewReplica(p, broadcast(p, n), machine)
	}
}

// replicaCtx intercepts the inner protocol's outputs.
type replicaCtx struct {
	model.Context
	r *Replica
}

// ctx resets the inner protocol's context for a step taken under c and
// returns it. Steps never nest (kernels queue self-sends), so one serves
// them all.
func (r *Replica) ctx(c model.Context) *replicaCtx {
	r.rc = replicaCtx{c, r}
	return &r.rc
}

func (c *replicaCtx) Output(v any) {
	if snap, ok := v.(model.SeqSnapshot); ok {
		// Pass the raw d_i evolution through (recorders and the (E)TOB
		// property checkers need it), then reconcile the machine.
		c.Context.Output(v)
		c.r.onDelivered(c.Context, snap.Seq)
		return
	}
	c.Context.Output(v)
}

// Init implements model.Automaton.
func (r *Replica) Init(ctx model.Context) { r.inner.Init(r.ctx(ctx)) }

// Tick implements model.Automaton.
func (r *Replica) Tick(ctx model.Context) { r.inner.Tick(r.ctx(ctx)) }

// IdleTicks implements model.Waker with the inner protocol's answer: the
// replica itself does nothing on a tick. A protocol that is not a Waker
// (the Paxos log) gets 0 and keeps ticking every TickInterval.
func (r *Replica) IdleTicks(fd any) int64 { return model.IdleTicks(r.inner, fd) }

// Recv implements model.Automaton.
func (r *Replica) Recv(ctx model.Context, from model.ProcID, payload any) {
	r.inner.Recv(r.ctx(ctx), from, payload)
}

// Input implements model.Automaton: a Command is broadcast with a unique ID;
// other inputs pass through to the broadcast protocol.
func (r *Replica) Input(ctx model.Context, in any) {
	if cmd, ok := in.(Command); ok {
		r.seq++
		// The ID takes one allocation, and its input one box.
		var num [20]byte
		id := EncodeCommand(r.idPrefix+string(strconv.AppendInt(num[:0], r.seq, 10)), cmd.Cmd)
		bi := any(model.BroadcastInput{ID: id})
		// Announce the generated broadcast so recorders see the full input
		// history (the raw input was a Command, not a BroadcastInput).
		ctx.Output(bi)
		r.inner.Input(r.ctx(ctx), bi)
		return
	}
	r.inner.Input(r.ctx(ctx), in)
}

// onDelivered reconciles the machine with the newly delivered sequence:
// apply the suffix if the new sequence kept the whole applied one as its
// prefix, otherwise rebuild deterministically from scratch.
func (r *Replica) onDelivered(ctx model.Context, seq []string) {
	from := len(r.applied)
	rebuilt := model.CommonPrefix(r.applied, seq) < from
	if rebuilt {
		r.machine = r.factory()
		r.rebuilt++
		from = 0
	}
	for _, id := range seq[from:] {
		if cmd, ok := DecodeCommand(id); ok {
			r.machine.Apply(cmd)
		}
	}
	r.applied = seq
	if rebuilt || len(seq) > from {
		ctx.Output(Applied{
			New:     seq[from:len(seq):len(seq)],
			Total:   len(seq),
			Rebuilt: rebuilt,
		})
	}
}

// Snapshot returns the replica's current machine snapshot.
func (r *Replica) Snapshot() string { return r.machine.Snapshot() }

// Inner returns the broadcast automaton the replica drives (introspection:
// e.g. ETOB's undelivered backlog lives there).
func (r *Replica) Inner() model.Automaton { return r.inner }

// AppliedCount returns the number of commands currently applied.
func (r *Replica) AppliedCount() int { return len(r.applied) }

// Rebuilds returns how many times the replica replayed from scratch.
func (r *Replica) Rebuilds() int { return r.rebuilt }

// ---------------------------------------------------------------------------
// State machines
// ---------------------------------------------------------------------------

// fields is a command being split into whitespace-separated fields the way
// strings.Fields splits it (on unicode.IsSpace runes), without allocating:
// each field is a substring of the command.
type fields string

// next removes and returns the first field, or "" if none is left.
func (f *fields) next() string {
	s := string(*f)
	i := span(s, true)
	j := i + span(s[i:], false)
	*f = fields(s[j:])
	return s[i:j]
}

// span returns the length of the longest prefix of s whose runes all are
// (space) or all are not (!space) unicode.IsSpace runes.
func span(s string, space bool) int {
	for i := 0; i < len(s); {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(r) != space {
			return i
		}
		i += w
	}
	return len(s)
}

// rest returns the fields left joined by single spaces, as
// strings.Join(strings.Fields(rest), " ") does, and "" if none is left. It
// is a substring unless some separator is not a single ASCII space.
func (f fields) rest() string {
	s := string(f)
	start, end := -1, 0
	for w := f.next(); w != ""; w = f.next() {
		e := len(s) - len(f)
		if b := e - len(w); start < 0 {
			start = b
		} else if b != end+1 || s[end] != ' ' {
			return strings.Join(strings.Fields(s), " ")
		}
		end = e
	}
	return s[max(start, 0):end]
}

// index holds a key-value machine's entries twice: in a map, for O(1)
// lookup, and in key order, so that Snapshot walks them once without
// sorting. A command on an existing key costs a map lookup; adding or
// removing a key also costs a binary search and an O(K) memmove for K keys.
type index struct {
	m      map[string]*entry
	sorted []*entry
}

type entry struct{ k, v string }

// at returns the entry of key k, adding an empty one if k is absent.
func (x *index) at(k string) *entry {
	if e := x.m[k]; e != nil {
		return e
	}
	if x.m == nil {
		x.m = make(map[string]*entry)
	}
	e := &entry{k: k}
	x.m[k] = e
	x.sorted = slices.Insert(x.sorted, x.find(k), e)
	return e
}

// remove deletes key k if present.
func (x *index) remove(k string) {
	if x.m[k] != nil {
		delete(x.m, k)
		i := x.find(k)
		x.sorted = slices.Delete(x.sorted, i, i+1)
	}
}

// find returns the position of key k in sorted order.
func (x *index) find(k string) int {
	i, _ := slices.BinarySearchFunc(x.sorted, k, func(e *entry, k string) int { return strings.Compare(e.k, k) })
	return i
}

// KVStore is a key-value store machine. Commands:
//
//	set <k> <v> | del <k> | append <k> <v>
//
// Its entries are kept in key order (see index), so Snapshot is one
// O(state bytes) pass into one allocation.
type KVStore struct {
	kv index
}

var _ StateMachine = (*KVStore)(nil)

// NewKVStore returns an empty KV store.
func NewKVStore() *KVStore { return &KVStore{} }

// KVFactory is a MachineFactory for KVStore.
func KVFactory() StateMachine { return NewKVStore() }

// Apply implements StateMachine. A value is every field after the key,
// joined by single spaces.
func (s *KVStore) Apply(cmd string) string {
	f := fields(cmd)
	op, k := f.next(), f.next()
	switch op {
	case "":
		return "err empty"
	case "set":
		v := f.rest()
		if v == "" {
			return "err set"
		}
		s.kv.at(k).v = v
		return "ok"
	case "del":
		if k == "" {
			return "err del"
		}
		s.kv.remove(k)
		return "ok"
	case "append":
		v := f.rest()
		if v == "" {
			return "err append"
		}
		s.kv.at(k).v += v
		return "ok"
	default:
		return "err unknown"
	}
}

// Get returns the value of a key.
func (s *KVStore) Get(k string) (string, bool) {
	if e := s.kv.m[k]; e != nil {
		return e.v, true
	}
	return "", false
}

// Snapshot implements StateMachine: "k=v" pairs in key order, joined by ",".
func (s *KVStore) Snapshot() string {
	size := 0
	for _, e := range s.kv.sorted {
		size += len(e.k) + len(e.v) + 2
	}
	var b strings.Builder
	b.Grow(size)
	for i, e := range s.kv.sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.k)
		b.WriteByte('=')
		b.WriteString(e.v)
	}
	return b.String()
}

// Counter is a named-counter machine. Commands: inc <name> [n] | dec <name> [n].
type Counter struct {
	m map[string]int64
}

var _ StateMachine = (*Counter)(nil)

// NewCounter returns an empty counter machine.
func NewCounter() *Counter { return &Counter{m: make(map[string]int64)} }

// CounterFactory is a MachineFactory for Counter.
func CounterFactory() StateMachine { return NewCounter() }

// Apply implements StateMachine. Fields after the third are ignored, and so
// is a third field that is not an integer.
func (c *Counter) Apply(cmd string) string {
	f := fields(cmd)
	op, name := f.next(), f.next()
	if name == "" {
		return "err"
	}
	n := int64(1)
	if a := f.next(); a != "" {
		if v, err := strconv.ParseInt(a, 10, 64); err == nil {
			n = v
		}
	}
	switch op {
	case "inc":
		c.m[name] += n
	case "dec":
		c.m[name] -= n
	default:
		return "err unknown"
	}
	return strconv.FormatInt(c.m[name], 10)
}

// Value returns the current value of a counter.
func (c *Counter) Value(name string) int64 { return c.m[name] }

// Snapshot implements StateMachine.
func (c *Counter) Snapshot() string {
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, c.m[k], 10)
	}
	return string(b)
}

// AppendLog is an append-only log machine. Command: any string, appended.
type AppendLog struct {
	entries []string
}

var _ StateMachine = (*AppendLog)(nil)

// NewAppendLog returns an empty log.
func NewAppendLog() *AppendLog { return &AppendLog{} }

// LogFactory is a MachineFactory for AppendLog.
func LogFactory() StateMachine { return NewAppendLog() }

// Apply implements StateMachine.
func (l *AppendLog) Apply(cmd string) string {
	l.entries = append(l.entries, cmd)
	return strconv.Itoa(len(l.entries))
}

// Entries returns a copy of the log.
func (l *AppendLog) Entries() []string { return append([]string(nil), l.entries...) }

// Snapshot implements StateMachine.
func (l *AppendLog) Snapshot() string { return strings.Join(l.entries, "\n") }
