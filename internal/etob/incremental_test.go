package etob

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/causal"
	"repro/internal/model"
	"repro/internal/wire"
)

// sent is one message captured by capCtx.
type sent struct {
	from, to model.ProcID
	payload  any
	cg       string // UpdateMsg only: the graph as it was when sent
}

// capCtx is a kernel-less model.Context that captures every send.
type capCtx struct {
	self model.ProcID
	n    int
	fd   any
	out  *[]sent
}

func (c capCtx) Self() model.ProcID { return c.self }
func (c capCtx) N() int             { return c.n }
func (c capCtx) Now() model.Time    { return 0 }
func (c capCtx) FD() any            { return c.fd }
func (c capCtx) Output(any)         {}
func (c capCtx) Send(to model.ProcID, p any) {
	s := sent{from: c.self, to: to, payload: p}
	if u, ok := p.(UpdateMsg); ok {
		s.cg = u.CG.String()
	}
	*c.out = append(*c.out, s)
}
func (c capCtx) Broadcast(p any) {
	for _, q := range model.Procs(c.n) {
		c.Send(q, p)
	}
}

// bruteFrontier is the frontier by definition: every node no edge leaves
// from, sorted.
func bruteFrontier(g *causal.Graph) []string {
	covered := map[string]bool{}
	for _, m := range g.Nodes() {
		for _, d := range g.Deps(m) {
			covered[d] = true
		}
	}
	out := []string{}
	for _, m := range g.Nodes() {
		if !covered[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// refProc is the full-walk reference for one process: CG_i rebuilt with
// Union (MergeSince from the zero mark) and promote_i with Extend, the frontier
// recomputed from scratch for every default C(m).
type refProc struct {
	cg       *causal.Graph
	promote  []string
	explicit map[string][]string // explicit C(m) as submitted
}

// diffProc pairs a process's automaton with its reference.
type diffProc struct {
	a   *Automaton
	ref *refProc
}

func newDiffProc(p model.ProcID, n int) *diffProc {
	dp := &diffProc{a: New(p, n), ref: &refProc{cg: causal.New(), explicit: map[string][]string{}}}
	dp.a.SetFlushHook(func(id string) {
		r := dp.ref
		deps, ok := r.explicit[id]
		if !ok {
			deps = bruteFrontier(r.cg)
		} else {
			deps = slices.DeleteFunc(slices.Clone(deps), func(d string) bool { return !r.cg.Has(d) })
		}
		r.cg.Add(id, deps)
	})
	return dp
}

func (dp *diffProc) check(t *testing.T, where string) {
	t.Helper()
	a, r := dp.a, dp.ref
	if got, want := a.cg.String(), r.cg.String(); got != want {
		t.Fatalf("%s: CG_i\n got %s\nwant %s", where, got, want)
	}
	if got, want := a.frontier(), bruteFrontier(r.cg); !slices.Equal(got, want) {
		t.Fatalf("%s: frontier %v, want %v", where, got, want)
	}
	if !slices.Equal(a.promote, r.promote) {
		t.Fatalf("%s: promote_i\n got %v\nwant %v", where, a.promote, r.promote)
	}
}

// TestIncrementalMatchesFullReference drives three processes through random
// schedules — reordered, duplicated and stale updates, sender restarts (a new
// lineage), wire round-tripped updates (no lineage) and explicit deps — and
// holds each automaton's CG_i, frontier and promote_i to the
// full-walk reference after every step. It also checks that no update's
// graph changed between its send and its delivery.
func TestIncrementalMatchesFullReference(t *testing.T) {
	const n = 3
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool []sent
		procs := make([]*diffProc, n+1)
		ctx := func(p model.ProcID) capCtx { return capCtx{self: p, n: n, out: &pool} }
		for _, p := range model.Procs(n) {
			procs[p] = newDiffProc(p, n)
		}
		ops := 0
		for step := 0; step < 300; step++ {
			p := model.ProcID(rng.Intn(n) + 1)
			dp := procs[p]
			where := fmt.Sprintf("seed %d step %d at %v", seed, step, p)
			switch r := rng.Intn(100); {
			case r < 35: // broadcastETOB, with explicit deps a third of the time
				ops++
				id := "m" + strconv.Itoa(ops)
				var deps []string
				if rng.Intn(3) == 0 {
					deps = []string{}
					for _, m := range dp.ref.cg.Nodes() {
						if rng.Intn(4) == 0 {
							deps = append(deps, m)
						}
					}
					dp.ref.explicit[id] = deps
				}
				dp.a.BroadcastETOB(ctx(p), id, deps)
			case r < 85 && len(pool) > 0: // deliver any in-flight message
				i := rng.Intn(len(pool))
				m := pool[i]
				if rng.Intn(4) != 0 {
					pool = slices.Delete(pool, i, i+1) // else it stays: a duplicate
				}
				u, ok := m.payload.(UpdateMsg)
				if !ok {
					continue
				}
				if got := u.CG.String(); got != m.cg {
					t.Fatalf("%s: update from %v changed after send:\n got %s\nwant %s", where, m.from, got, m.cg)
				}
				if rng.Intn(5) == 0 {
					u = UpdateMsg{CG: wireRoundTrip(t, u.CG)}
				}
				dp = procs[m.to]
				where = fmt.Sprintf("seed %d step %d at %v", seed, step, m.to)
				dp.a.Recv(ctx(m.to), m.from, u)
				r := dp.ref
				r.cg.Union(u.CG)
				next, err := r.cg.Extend(r.promote)
				if err != nil {
					t.Fatalf("%s: reference Extend: %v", where, err)
				}
				r.promote = next
			case r < 97: // local timeout
				dp.a.Tick(ctx(p))
			default: // restart: a fresh incarnation with a new lineage
				procs[p] = newDiffProc(p, n)
				dp = procs[p]
			}
			dp.check(t, where)
		}
	}
}

// wireRoundTrip passes g through its wire form, which drops its lineage.
func wireRoundTrip(t *testing.T, g *causal.Graph) *causal.Graph {
	t.Helper()
	b, err := g.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	var r wire.Reader
	r.Reset(b)
	out := causal.ReadGraph(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSentPayloadsImmutable: an UpdateMsg graph and a PromoteMsg sequence
// share storage with the sender, so neither may change when the sender's
// CG_i and promote_i grow in place, or when a late edge sends UpdatePromote
// down its full Extend path.
func TestSentPayloadsImmutable(t *testing.T) {
	var out []sent
	ctx := capCtx{self: 1, n: 2, fd: model.ProcID(1), out: &out} // p1 leads
	a := New(1, 2)
	var seqs [][]string
	for i := 0; i < 40; i++ {
		a.BroadcastETOB(ctx, fmt.Sprintf("m%02d", i), nil)
		a.Recv(ctx, 1, out[len(out)-1].payload)
		if i == 30 {
			// m05 gains m01 as a predecessor: a late edge that promote_i
			// (m01 first) absorbs, through the full-walk fallback.
			g := causal.New()
			g.Add("m05", []string{"m01"})
			a.Recv(ctx, 2, UpdateMsg{CG: g})
		}
		a.Tick(ctx)
		seqs = append(seqs, slices.Clone(out[len(out)-1].payload.(PromoteMsg).Seq))
	}
	if !a.cg.HasEdge("m05", "m01") {
		t.Fatal("late edge not merged")
	}
	k := 0
	for _, m := range out {
		switch x := m.payload.(type) {
		case UpdateMsg:
			if got := x.CG.String(); got != m.cg {
				t.Fatalf("update graph changed after send:\n got %s\nwant %s", got, m.cg)
			}
		case PromoteMsg:
			if m.to == 2 {
				if !slices.Equal(x.Seq, seqs[k]) {
					t.Fatalf("promote %d changed after send: %v, want %v", k, x.Seq, seqs[k])
				}
				k++
			}
		}
	}
}

// TestUnknownDepsDropped: an explicit dependency CG_i does not hold is
// dropped, so it never becomes a placeholder node, and its real history
// arriving later is ordered normally.
func TestUnknownDepsDropped(t *testing.T) {
	var out []sent
	ctx := capCtx{self: 1, n: 2, out: &out}
	a := New(1, 2)
	a.BroadcastETOB(ctx, "a", nil)
	a.BroadcastETOB(ctx, "b", []string{"a", "ghost"})
	if a.cg.Has("ghost") || !a.cg.HasEdge("b", "a") || a.cg.Len() != 2 {
		t.Fatalf("CG_i = %v, want a<-{}; b<-{a}", a.cg)
	}
	a.Recv(ctx, 1, out[len(out)-1].payload)
	g := causal.New()
	g.Add("x", nil)
	g.Add("ghost", []string{"x"})
	a.Recv(ctx, 2, UpdateMsg{CG: g})
	if want := []string{"a", "b", "x", "ghost"}; !slices.Equal(a.Promote(), want) {
		t.Fatalf("promote_i = %v, want %v", a.Promote(), want)
	}
}

// historyPair returns a sender and a receiver that share a history of h
// broadcasts, and one more step: the sender broadcasts, the receiver merges.
func historyPair(h int) func() {
	var last any
	sender, receiver := New(1, 2), New(2, 2)
	sctx := lastCtx{last: &last}
	rctx := nullCtx{self: 2}
	i := 0
	step := func() {
		i++
		sender.BroadcastETOB(sctx, "m"+strconv.Itoa(i), nil)
		receiver.Recv(rctx, 1, last)
	}
	for i < h {
		step()
	}
	return step
}

// lastCtx keeps only the latest broadcast, so a long history costs no
// capture memory.
type lastCtx struct {
	nullCtx
	last *any
}

func (c lastCtx) Broadcast(p any) { *c.last = p }

// TestStepCostFlatInHistory is the tier-1 guard on per-update cost: one
// broadcast plus its receipt allocates no more at a history of 8k ops than
// at 1k.
func TestStepCostFlatInHistory(t *testing.T) {
	small := testing.AllocsPerRun(100, historyPair(1000))
	large := testing.AllocsPerRun(100, historyPair(8000))
	if large > small {
		t.Fatalf("allocs per step grow with history: %.0f at 1k ops, %.0f at 8k", small, large)
	}
}

// BenchmarkRecvUpdateHistory measures one broadcast plus its receipt after
// a history of 1k and 8k ops: equal figures mean per-update cost does not
// depend on history length.
func BenchmarkRecvUpdateHistory(b *testing.B) {
	for _, h := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("%dk", h/1000), func(b *testing.B) {
			step := historyPair(h)
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}
