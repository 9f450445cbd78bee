package smr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/ec"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	_ "repro/internal/sim/adversary" // registers the hostile preset
	"repro/internal/transform"
)

// isPrefix is the reference for model.CommonPrefix(applied, seq) ==
// len(applied).
func isPrefix(pre, full []string) bool {
	return len(pre) <= len(full) && slices.Equal(pre, full[:len(pre)])
}

// refReplica is the reconcile rule the Replica had when it kept its own copy
// of the applied sequence: apply the suffix when that copy is a prefix of
// the new sequence (an O(H) check per delivery), otherwise rebuild from
// scratch.
type refReplica struct {
	machine StateMachine
	applied []string
	rebuilt int
}

func (r *refReplica) deliver(seq []string) (Applied, bool) {
	rebuilt := !isPrefix(r.applied, seq)
	if rebuilt {
		r.machine = KVFactory()
		r.applied = nil
		r.rebuilt++
	}
	from := len(r.applied)
	for _, id := range seq[from:] {
		if cmd, ok := DecodeCommand(id); ok {
			r.machine.Apply(cmd)
		}
		r.applied = append(r.applied, id)
	}
	if !rebuilt && len(r.applied) == from {
		return Applied{}, false
	}
	return Applied{New: slices.Clone(r.applied[from:]), Total: len(r.applied), Rebuilt: rebuilt}, true
}

// emit makes a seqSource emit the Seq.
type emit []string

// seqSource is a broadcast automaton whose d_i the test sets directly.
type seqSource struct{}

func (seqSource) Init(model.Context)                    {}
func (seqSource) Tick(model.Context)                    {}
func (seqSource) Recv(model.Context, model.ProcID, any) {}
func (seqSource) Input(ctx model.Context, in any) {
	if e, ok := in.(emit); ok {
		ctx.Output(model.SeqSnapshot{Seq: e})
	}
}

// lastCtx is a kernel-less model.Context that keeps the last Applied.
type lastCtx struct{ last *Applied }

func (lastCtx) Self() model.ProcID     { return 1 }
func (lastCtx) N() int                 { return 1 }
func (lastCtx) Now() model.Time        { return 0 }
func (lastCtx) FD() any                { return nil }
func (lastCtx) Send(model.ProcID, any) {}
func (lastCtx) Broadcast(any)          {}
func (c lastCtx) Output(v any) {
	if a, ok := v.(Applied); ok {
		*c.last = a
	}
}

// seqStream is a producer's d_i: each step derives the next value from cur
// by appends, a swap near the tail, a truncation, or an identical re-emit.
// Half the appends go onto arr, an append-only array whose full-length views
// are emitted (as etob's promote_i and consensus.Log's d are), so the new
// Seq shares cur's elements; everything else builds a fresh array. No
// emitted Seq is ever mutated.
type seqStream struct {
	cur, arr []string
}

func (s *seqStream) next(rng *rand.Rand, fresh func() string) []string {
	cur := s.cur
	next := slices.Clone(cur)
	switch r := rng.Intn(10); {
	case r < 5:
		if rng.Intn(2) == 0 {
			if len(s.arr) != len(cur) || len(cur) > 0 && &s.arr[0] != &cur[0] {
				s.arr = append(make([]string, 0, 2*len(cur)+4), cur...)
			}
			for range 1 + rng.Intn(3) {
				s.arr = append(s.arr, fresh())
			}
			next = s.arr[:len(s.arr):len(s.arr)]
			break
		}
		for range 1 + rng.Intn(3) {
			next = append(next, fresh())
		}
	case r < 7:
		if len(next) >= 2 {
			i := max(0, len(next)-5) + rng.Intn(min(len(next), 5)-1)
			j := i + 1 + rng.Intn(len(next)-i-1)
			next[i], next[j] = next[j], next[i]
		}
	case r < 8:
		next = next[:rng.Intn(len(next)+1)]
	case r < 9:
		// identical content in a fresh array
	default:
		next = cur // the same view again
	}
	s.cur = next
	return next
}

// TestReconcileMatchesPrefixReference holds the Replica, which keeps only a
// view of the last delivered Seq, to the isPrefix+rebuild reference over
// seeded random d_i streams: after every snapshot, the Applied output,
// Rebuilds() and Snapshot() must agree.
func TestReconcileMatchesPrefixReference(t *testing.T) {
	cmds := []string{"set k%d v%d", "del k%d", "append k%d x%d"}
	reorders := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := 0
		fresh := func() string {
			ids++
			if rng.Intn(8) == 0 {
				return fmt.Sprintf("raw-%d", ids) // not a command: applied as a no-op
			}
			c := cmds[rng.Intn(len(cmds))]
			return EncodeCommand(fmt.Sprintf("u.%d", ids), fmt.Sprintf(c, rng.Intn(6), ids))
		}
		var last Applied
		ctx := lastCtx{&last}
		rep := NewReplica(1, seqSource{}, KVFactory)
		ref := &refReplica{machine: KVFactory()}
		var s seqStream
		for step := 0; step < 300; step++ {
			cur := s.cur
			next := s.next(rng, fresh)
			if !isPrefix(cur, next) {
				reorders++
			}
			last = Applied{Total: -1} // stays so if the replica outputs nothing
			rep.Input(ctx, emit(next))
			want, changed := ref.deliver(next)
			if !changed {
				want = Applied{Total: -1}
			}
			if !slices.Equal(last.New, want.New) || last.Total != want.Total || last.Rebuilt != want.Rebuilt {
				t.Fatalf("seed %d step %d: Applied %+v, reference %+v", seed, step, last, want)
			}
			if rep.Rebuilds() != ref.rebuilt || rep.AppliedCount() != len(ref.applied) {
				t.Fatalf("seed %d step %d: rebuilds %d applied %d, reference %d and %d",
					seed, step, rep.Rebuilds(), rep.AppliedCount(), ref.rebuilt, len(ref.applied))
			}
			if got, want := rep.Snapshot(), ref.machine.Snapshot(); got != want {
				t.Fatalf("seed %d step %d: snapshot %q, reference %q", seed, step, got, want)
			}
		}
	}
	if reorders == 0 {
		t.Fatal("no stream reordered d_i: the rebuild path went untested")
	}
}

// seqCheck wraps a broadcast automaton and checks, at every SeqSnapshot it
// emits, that the previous emitted Seq was not mutated since: consumers keep
// Seq without a copy (model.SeqSnapshot).
type seqCheck struct {
	model.Automaton
	t        *testing.T
	snaps    *int
	prev     []string // the previous emitted Seq, as emitted
	prevCopy []string // and as it was when emitted
}

type seqCheckCtx struct {
	model.Context
	c *seqCheck
}

func (x seqCheckCtx) Output(v any) {
	if s, ok := v.(model.SeqSnapshot); ok {
		c := x.c
		if !slices.Equal(c.prev, c.prevCopy) {
			c.t.Errorf("%v: an emitted Seq was mutated: was %v, now %v", x.Self(), c.prevCopy, c.prev)
		}
		*c.snaps++
		c.prev, c.prevCopy = s.Seq, slices.Clone(s.Seq)
	}
	x.Context.Output(v)
}

func (c *seqCheck) Init(ctx model.Context) { c.Automaton.Init(seqCheckCtx{ctx, c}) }
func (c *seqCheck) Tick(ctx model.Context) { c.Automaton.Tick(seqCheckCtx{ctx, c}) }
func (c *seqCheck) Recv(ctx model.Context, from model.ProcID, m any) {
	c.Automaton.Recv(seqCheckCtx{ctx, c}, from, m)
}
func (c *seqCheck) Input(ctx model.Context, in any) { c.Automaton.Input(seqCheckCtx{ctx, c}, in) }

// TestProducersNeverMutateEmittedSeq runs every SeqSnapshot producer under
// the check: etob (under the replica and retransmission, in the hostile
// preset with restarts and a split Ω), consensus.Log and transform.ECToETOB.
func TestProducersNeverMutateEmittedSeq(t *testing.T) {
	const n = 5
	producers := []struct {
		name    string
		factory model.AutomatonFactory
		hostile bool
	}{
		{"etob", etob.Factory(), true},
		{"consensus.Log", consensus.LogFactory(consensus.MajorityQuorums), false},
		{"transform.ECToETOB", transform.ECToETOBFactory(func(p model.ProcID, n int) transform.ECProtocol { return ec.New(p, n) }), false},
	}
	for _, pr := range producers {
		t.Run(pr.name, func(t *testing.T) {
			snaps := 0
			checked := func(p model.ProcID, n int) model.Automaton {
				return &seqCheck{Automaton: pr.factory(p, n), t: t, snaps: &snaps}
			}
			for seed := int64(1); seed <= 4; seed++ {
				fp := model.NewFailurePattern(n)
				det := fd.NewOmegaSplit(fp, 2, 1, 1, 1500)
				factory := ReplicaFactory(checked, KVFactory)
				opts := sim.Options{Seed: seed}
				if pr.hostile {
					factory = retransmit.Wrap(factory, retransmit.Options{Seed: seed})
					nf, err := sim.PresetFactory("hostile")
					if err != nil {
						t.Fatal(err)
					}
					opts.Network, opts.Faults = nf, sim.PresetFaults("hostile")(n)
				}
				k := sim.New(fp, det, factory, opts)
				for i := range 40 {
					p := model.ProcID(i%n + 1)
					k.ScheduleInput(p, model.Time(20+37*i), Command{Cmd: fmt.Sprintf("set k%d v%d", i%7, i)})
				}
				k.Run(8000)
			}
			if snaps == 0 {
				t.Fatal("no SeqSnapshot was checked")
			}
		})
	}
}

// historyReplica returns a Replica with h applied commands over an
// append-only d_i, and a step that appends and reconciles one more.
func historyReplica(h, steps int) func() {
	seq := make([]string, 0, h+steps)
	for i := range h {
		seq = append(seq, EncodeCommand(fmt.Sprintf("u.%d", i), fmt.Sprintf("set k%d v%d", i%256, i)))
	}
	var last Applied
	ctx := lastCtx{&last}
	rep := NewReplica(1, seqSource{}, KVFactory)
	rep.Input(ctx, emit(seq[:h:h]))
	next := make([]string, steps)
	for i := range next {
		next[i] = EncodeCommand(fmt.Sprintf("u.%d", h+i), fmt.Sprintf("set k%d w%d", i%256, i))
	}
	i := 0
	return func() {
		n := len(seq)
		seq = append(seq, next[i%steps])
		i++
		rep.Input(ctx, emit(seq[:n+1:n+1]))
	}
}

// TestReconcileCostFlatInHistory is the tier-1 guard on the replica's
// per-delivery cost: reconciling a one-op append allocates no more at a
// history of 8k commands than at 1k.
func TestReconcileCostFlatInHistory(t *testing.T) {
	small := testing.AllocsPerRun(100, historyReplica(1000, 101))
	large := testing.AllocsPerRun(100, historyReplica(8000, 101))
	if large > small {
		t.Fatalf("allocs per delivery grow with history: %.0f at 1k commands, %.0f at 8k", small, large)
	}
}

// BenchmarkReconcileHistory measures one delivered append, applied, after
// 1k and 64k commands of history. The rows should read alike: a delivery
// costs O(new commands), not O(history).
func BenchmarkReconcileHistory(b *testing.B) {
	for _, h := range []struct {
		name string
		h    int
	}{{"1k", 1 << 10}, {"64k", 1 << 16}} {
		b.Run(h.name, func(b *testing.B) {
			step := historyReplica(h.h, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}
