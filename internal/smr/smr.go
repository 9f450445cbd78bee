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
// Commands piggyback on broadcast message IDs ("<uniq>|<command>"), since
// the broadcast abstractions order opaque message identifiers.
package smr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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
// entire re-applied sequence.
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
// consensus.Log, transform.ECToETOB, ...).
type Replica struct {
	self    model.ProcID
	inner   model.Automaton
	factory MachineFactory

	machine StateMachine
	applied []string // command IDs applied, in order
	seq     int64
	rebuilt int
}

var _ model.Automaton = (*Replica)(nil)

// NewReplica wraps the broadcast automaton with a state machine.
func NewReplica(p model.ProcID, inner model.Automaton, factory MachineFactory) *Replica {
	return &Replica{self: p, inner: inner, factory: factory, machine: factory()}
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

func (c replicaCtx) Output(v any) {
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
func (r *Replica) Init(ctx model.Context) { r.inner.Init(replicaCtx{ctx, r}) }

// Tick implements model.Automaton.
func (r *Replica) Tick(ctx model.Context) { r.inner.Tick(replicaCtx{ctx, r}) }

// Recv implements model.Automaton.
func (r *Replica) Recv(ctx model.Context, from model.ProcID, payload any) {
	r.inner.Recv(replicaCtx{ctx, r}, from, payload)
}

// Input implements model.Automaton: a Command is broadcast with a unique ID;
// other inputs pass through to the broadcast protocol.
func (r *Replica) Input(ctx model.Context, in any) {
	if cmd, ok := in.(Command); ok {
		r.seq++
		id := EncodeCommand(fmt.Sprintf("%v.%d", r.self, r.seq), cmd.Cmd)
		// Announce the generated broadcast so recorders see the full input
		// history (the raw input was a Command, not a BroadcastInput).
		ctx.Output(model.BroadcastInput{ID: id})
		r.inner.Input(replicaCtx{ctx, r}, model.BroadcastInput{ID: id})
		return
	}
	r.inner.Input(replicaCtx{ctx, r}, in)
}

// onDelivered reconciles the machine with the newly delivered sequence:
// apply the suffix if the old sequence is a prefix of the new one, otherwise
// rebuild deterministically from scratch.
func (r *Replica) onDelivered(ctx model.Context, seq []string) {
	rebuilt := false
	if !isPrefix(r.applied, seq) {
		r.machine = r.factory()
		r.applied = r.applied[:0]
		r.rebuilt++
		rebuilt = true
	}
	from := len(r.applied)
	for _, id := range seq[from:] {
		if cmd, ok := DecodeCommand(id); ok {
			r.machine.Apply(cmd)
		}
		r.applied = append(r.applied, id)
	}
	if rebuilt || len(r.applied) > from {
		ctx.Output(Applied{
			New:     append([]string(nil), r.applied[from:]...),
			Total:   len(r.applied),
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

func isPrefix(pre, full []string) bool {
	if len(pre) > len(full) {
		return false
	}
	for i := range pre {
		if pre[i] != full[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// State machines
// ---------------------------------------------------------------------------

// KVStore is a key-value store machine. Commands:
//
//	set <k> <v> | del <k> | append <k> <v>
type KVStore struct {
	m map[string]string
}

var _ StateMachine = (*KVStore)(nil)

// NewKVStore returns an empty KV store.
func NewKVStore() *KVStore { return &KVStore{m: make(map[string]string)} }

// KVFactory is a MachineFactory for KVStore.
func KVFactory() StateMachine { return NewKVStore() }

// Apply implements StateMachine.
func (s *KVStore) Apply(cmd string) string {
	f := strings.Fields(cmd)
	if len(f) == 0 {
		return "err empty"
	}
	switch f[0] {
	case "set":
		if len(f) < 3 {
			return "err set"
		}
		s.m[f[1]] = strings.Join(f[2:], " ")
		return "ok"
	case "del":
		if len(f) < 2 {
			return "err del"
		}
		delete(s.m, f[1])
		return "ok"
	case "append":
		if len(f) < 3 {
			return "err append"
		}
		s.m[f[1]] += strings.Join(f[2:], " ")
		return "ok"
	default:
		return "err unknown"
	}
}

// Get returns the value of a key.
func (s *KVStore) Get(k string) (string, bool) {
	v, ok := s.m[k]
	return v, ok
}

// Snapshot implements StateMachine: sorted "k=v" pairs.
func (s *KVStore) Snapshot() string {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+s.m[k])
	}
	return strings.Join(parts, ",")
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

// Apply implements StateMachine.
func (c *Counter) Apply(cmd string) string {
	f := strings.Fields(cmd)
	if len(f) < 2 {
		return "err"
	}
	n := int64(1)
	if len(f) >= 3 {
		if v, err := strconv.ParseInt(f[2], 10, 64); err == nil {
			n = v
		}
	}
	switch f[0] {
	case "inc":
		c.m[f[1]] += n
	case "dec":
		c.m[f[1]] -= n
	default:
		return "err unknown"
	}
	return strconv.FormatInt(c.m[f[1]], 10)
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
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c.m[k]))
	}
	return strings.Join(parts, ",")
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
