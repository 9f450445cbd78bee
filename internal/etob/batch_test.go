package etob

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// eventLog records every kernel event as a formatted line: two runs with
// identical logs took bit-for-bit identical steps (same sends, same payload
// encodings, same deliveries, same outputs, same times).
type eventLog struct {
	sim.NopObserver
	lines []string
	sends int
}

func (l *eventLog) OnSend(t model.Time, m sim.Message) {
	l.sends++
	l.lines = append(l.lines, fmt.Sprintf("send %d %v->%v @%d %v", m.ID, m.From, m.To, t, m.Payload))
}

func (l *eventLog) OnDeliver(t model.Time, m sim.Message) {
	l.lines = append(l.lines, fmt.Sprintf("dlv %d %v->%v @%d %v", m.ID, m.From, m.To, t, m.Payload))
}

func (l *eventLog) OnOutput(p model.ProcID, t model.Time, v any) {
	l.lines = append(l.lines, fmt.Sprintf("out %v @%d %v", p, t, v))
}

// runLogged runs a fixed broadcast schedule under the given factory and
// returns the full event log.
func runLogged(fp *model.FailurePattern, factory model.AutomatonFactory, seed int64) *eventLog {
	det := fd.NewOmegaStable(fp, 1)
	log := &eventLog{}
	k := sim.New(fp, det, factory, sim.Options{Seed: seed})
	k.SetObserver(log)
	scheduleBroadcasts(k, fp.N(), 5, 20, 40)
	k.Run(8000)
	return log
}

func TestBatchK1TraceIdentity(t *testing.T) {
	// The degeneration guarantee behind the golden tables: MaxBatch=1 (and
	// the zero value) must take the historical immediate path, producing an
	// event stream identical to the unbatched automaton's, event for event.
	fp := model.NewFailurePattern(3)
	base := runLogged(fp, Factory(), 9)
	for _, o := range []BatchOptions{{}, {MaxBatch: 1}, {MaxBatch: 1, MaxLinger: 5}} {
		got := runLogged(model.NewFailurePattern(3), BatchedFactory(o), 9)
		if len(got.lines) != len(base.lines) {
			t.Fatalf("%+v: %d events vs %d unbatched", o, len(got.lines), len(base.lines))
		}
		for i := range base.lines {
			if got.lines[i] != base.lines[i] {
				t.Fatalf("%+v: event %d diverges:\n  batched:   %s\n  unbatched: %s", o, i, got.lines[i], base.lines[i])
			}
		}
	}
}

func TestBatchCoalescesAndStaysConformant(t *testing.T) {
	// k=4 with a linger bound: the same workload must (a) still satisfy the
	// full ETOB spec, (b) deliver every message everywhere, and (c) do it
	// with materially fewer update broadcasts than k=1.
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	log := &eventLog{}
	rec := trace.NewRecorder(3)
	k := sim.New(fp, det, BatchedFactory(BatchOptions{MaxBatch: 4, MaxLinger: 2}), sim.Options{Seed: 9})
	k.SetObserver(teeObserver{log, rec})
	// Burst submissions: 5 ops per process at the SAME tick so batches fill.
	for i := 0; i < 5; i++ {
		for _, p := range model.Procs(3) {
			k.ScheduleInput(p, model.Time(20+p), model.BroadcastInput{ID: fmt.Sprintf("p%d#%d", p, i+1)})
		}
	}
	k.Run(8000)

	rep := trace.CheckETOB(rec, fp.Correct(), trace.CheckOptions{InputCutoff: 4000, SettleTime: 6000})
	if !rep.OK() {
		t.Fatalf("batched ETOB violates the spec: %+v", rep)
	}
	for _, p := range fp.Correct() {
		if got := len(rec.FinalSeq(p)); got != 15 {
			t.Errorf("%v delivered %d messages, want 15", p, got)
		}
	}

	base := runBurst(fp.N(), Factory(), 9)
	for _, p := range model.Procs(3) {
		st := k.Automaton(p).(*Automaton).BatchStats()
		if st.Queued != 0 {
			t.Errorf("%v still has %d queued ops after the run", p, st.Queued)
		}
		if st.Ops != 5 {
			t.Errorf("%v batched %d ops, want 5", p, st.Ops)
		}
		if st.Flushes >= st.Ops {
			t.Errorf("%v: %d flushes for %d ops — nothing coalesced", p, st.Flushes, st.Ops)
		}
	}
	if log.sends >= base.sends {
		t.Errorf("batched run sent %d messages, unbatched %d — batching must shrink the send count", log.sends, base.sends)
	}
	t.Logf("sends: %d batched vs %d unbatched", log.sends, base.sends)
}

// runBurst mirrors the burst schedule of TestBatchCoalescesAndStaysConformant.
func runBurst(n int, factory model.AutomatonFactory, seed int64) *eventLog {
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaStable(fp, 1)
	log := &eventLog{}
	k := sim.New(fp, det, factory, sim.Options{Seed: seed})
	k.SetObserver(log)
	for i := 0; i < 5; i++ {
		for _, p := range model.Procs(n) {
			k.ScheduleInput(p, model.Time(20+p), model.BroadcastInput{ID: fmt.Sprintf("p%d#%d", p, i+1)})
		}
	}
	k.Run(8000)
	return log
}

// teeObserver fans kernel events out to two observers.
type teeObserver struct{ a, b sim.Observer }

func (t teeObserver) OnSend(tm model.Time, m sim.Message) { t.a.OnSend(tm, m); t.b.OnSend(tm, m) }
func (t teeObserver) OnDeliver(tm model.Time, m sim.Message) {
	t.a.OnDeliver(tm, m)
	t.b.OnDeliver(tm, m)
}
func (t teeObserver) OnOutput(p model.ProcID, tm model.Time, v any) {
	t.a.OnOutput(p, tm, v)
	t.b.OnOutput(p, tm, v)
}
func (t teeObserver) OnInput(p model.ProcID, tm model.Time, v any) {
	t.a.OnInput(p, tm, v)
	t.b.OnInput(p, tm, v)
}

func TestBatchIntraBatchCausality(t *testing.T) {
	// Ops queued in one batch with nil deps must chain causally: the flush
	// resolves op k's deps to the frontier AFTER op k-1's UpdateCG.
	a := NewBatched(1, 2, BatchOptions{MaxBatch: 3})
	ctx := &fakeCtx{}
	a.Init(ctx)
	a.Input(ctx, model.BroadcastInput{ID: "m1"})
	a.Input(ctx, model.BroadcastInput{ID: "m2"})
	if got := a.cg.Len(); got != 0 {
		t.Fatalf("CG has %d nodes before the flush, want 0", got)
	}
	a.Input(ctx, model.BroadcastInput{ID: "m3"}) // fills the batch → flush
	if got := a.cg.Len(); got != 3 {
		t.Fatalf("CG has %d nodes after the flush, want 3", got)
	}
	if !a.cg.HasEdge("m2", "m1") || !a.cg.HasEdge("m3", "m2") {
		t.Errorf("intra-batch causal chain missing: deps(m2)=%v deps(m3)=%v", a.cg.Deps("m2"), a.cg.Deps("m3"))
	}
	if got := len(ctx.broadcasts); got != 1 {
		t.Fatalf("%d broadcasts for a 3-op batch, want 1", got)
	}
	if _, ok := ctx.broadcasts[0].(UpdateMsg); !ok {
		t.Fatalf("flush broadcast a %T, want UpdateMsg", ctx.broadcasts[0])
	}
}

func TestBatchLingerFlush(t *testing.T) {
	// An op never waits more than MaxLinger ticks: a half-full batch flushes
	// on the linger deadline.
	a := NewBatched(1, 2, BatchOptions{MaxBatch: 8, MaxLinger: 2})
	ctx := &fakeCtx{}
	a.Init(ctx)
	countUpdates := func() int {
		n := 0
		for _, b := range ctx.broadcasts {
			if _, ok := b.(UpdateMsg); ok {
				n++
			}
		}
		return n
	}
	a.Input(ctx, model.BroadcastInput{ID: "solo"})
	a.Tick(ctx) // linger 1 (the leader's PromoteMsg broadcasts don't count)
	if countUpdates() != 0 {
		t.Fatalf("flushed after 1 tick with MaxLinger=2")
	}
	a.Tick(ctx) // linger 2 → flush
	if !a.cg.Has("solo") {
		t.Fatal("linger deadline passed but the op never flushed")
	}
	if countUpdates() != 1 {
		t.Fatalf("%d UpdateMsg broadcasts after the linger flush, want 1", countUpdates())
	}
}

func TestBatchDuplicateIDIgnored(t *testing.T) {
	a := NewBatched(1, 2, BatchOptions{MaxBatch: 4})
	ctx := &fakeCtx{}
	a.Init(ctx)
	a.Input(ctx, model.BroadcastInput{ID: "dup"})
	a.Input(ctx, model.BroadcastInput{ID: "dup"}) // queued duplicate
	if st := a.BatchStats(); st.Queued != 1 || st.Ops != 1 {
		t.Fatalf("queued duplicate accepted: %+v", st)
	}
	a.Tick(ctx)                                   // flush "dup" into the graph
	a.Input(ctx, model.BroadcastInput{ID: "dup"}) // already-flushed duplicate
	if st := a.BatchStats(); st.Queued != 0 || st.Ops != 1 {
		t.Fatalf("flushed duplicate re-queued: %+v", st)
	}
}

func TestBatchCommitComposition(t *testing.T) {
	// The commit layer rides on the batched core: a batched CommitAutomaton
	// cluster still commits every op.
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaStable(fp, 1)
	factory := func(p model.ProcID, n int) model.Automaton {
		a := NewWithCommit(p, n)
		a.SetBatch(BatchOptions{MaxBatch: 3, MaxLinger: 2})
		return a
	}
	k := sim.New(fp, det, factory, sim.Options{Seed: 21})
	for i := 0; i < 6; i++ {
		for _, p := range model.Procs(3) {
			k.ScheduleInput(p, model.Time(20+p), model.BroadcastInput{ID: fmt.Sprintf("c%d#%d", p, i)})
		}
	}
	k.Run(10000)
	for _, p := range fp.Correct() {
		ca := k.Automaton(p).(*CommitAutomaton)
		if got := ca.Committed(); got != 18 {
			t.Errorf("%v committed %d ops, want 18", p, got)
		}
		if st := ca.BatchStats(); st.Flushes >= st.Ops {
			t.Errorf("%v commit stack never coalesced: %+v", p, st)
		}
	}
}

// fakeCtx is a minimal model.Context for driving an automaton directly.
type fakeCtx struct {
	broadcasts []any
	outputs    []any
}

func (c *fakeCtx) Self() model.ProcID     { return 1 }
func (c *fakeCtx) N() int                 { return 2 }
func (c *fakeCtx) Now() model.Time        { return 0 }
func (c *fakeCtx) FD() any                { return model.ProcID(1) }
func (c *fakeCtx) Send(model.ProcID, any) {}
func (c *fakeCtx) Broadcast(v any)        { c.broadcasts = append(c.broadcasts, v) }
func (c *fakeCtx) Output(v any)           { c.outputs = append(c.outputs, v) }
