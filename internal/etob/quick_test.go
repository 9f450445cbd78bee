package etob

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/causal"
	"repro/internal/model"
)

// nullCtx satisfies model.Context for driving an automaton without a kernel.
type nullCtx struct {
	self model.ProcID
	fd   any
}

func (c nullCtx) Self() model.ProcID     { return c.self }
func (c nullCtx) N() int                 { return 2 }
func (c nullCtx) Now() model.Time        { return 0 }
func (c nullCtx) FD() any                { return c.fd }
func (c nullCtx) Send(model.ProcID, any) {}
func (c nullCtx) Broadcast(any)          {}
func (c nullCtx) Output(any)             {}

// TestQuickPromotePrefixInvariant: feeding an automaton any sequence of
// dependency-closed causality-graph unions keeps promote_i (a) duplicate
// free, (b) prefix-monotone, and (c) edge-respecting — the exact invariants
// ETOB-Stability rests on (Lemma 3).
func TestQuickPromotePrefixInvariant(t *testing.T) {
	f := func(seed int64, nMsgsRaw uint8) bool {
		nMsgs := int(nMsgsRaw%24) + 1
		rng := rand.New(rand.NewSource(seed))
		// A global dependency-closed graph, grown message by message.
		global := causal.New()
		var ids []string
		a := New(1, 2)
		ctx := nullCtx{self: 1, fd: nil}
		prev := a.Promote()
		for i := 0; i < nMsgs; i++ {
			id := fmt.Sprintf("m%02d", i)
			var deps []string
			for _, prevID := range ids {
				if rng.Intn(3) == 0 {
					deps = append(deps, prevID)
				}
			}
			global.Add(id, deps)
			ids = append(ids, id)
			// Deliver a clone of the current global graph (as Algorithm 5's
			// update messages do), possibly repeatedly (links can duplicate
			// knowledge through different senders).
			times := rng.Intn(2) + 1
			for j := 0; j < times; j++ {
				a.Recv(ctx, 2, UpdateMsg{CG: global.Clone()})
			}
			cur := a.Promote()
			// (a) duplicate-free.
			seen := map[string]bool{}
			for _, m := range cur {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
			// (b) prefix-monotone.
			if len(cur) < len(prev) {
				return false
			}
			for k := range prev {
				if cur[k] != prev[k] {
					return false
				}
			}
			// (c) edge-respecting.
			pos := map[string]int{}
			for k, m := range cur {
				pos[m] = k
			}
			for _, m := range cur {
				for _, d := range global.Deps(m) {
					if pd, ok := pos[d]; !ok || pd > pos[m] {
						return false
					}
				}
			}
			prev = cur
		}
		return len(prev) == nMsgs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickStalePromotesNeverShrinkD: delivering promote messages with
// arbitrary (possibly decreasing) counters never makes d_i adopt a stale
// sequence — the per-sender promote counter that makes adoption safe over
// non-FIFO links.
func TestQuickStalePromotesNeverShrinkD(t *testing.T) {
	f := func(ctrsRaw []uint8) bool {
		a := New(2, 2)
		ctx := nullCtx{self: 2, fd: model.ProcID(1)} // p2 trusts p1
		best := int64(0)
		for i, raw := range ctrsRaw {
			ctr := int64(raw%16) + 1
			seq := make([]string, ctr) // longer counter ⇒ longer sequence
			for j := range seq {
				seq[j] = fmt.Sprintf("m%02d", j)
			}
			a.Recv(ctx, 1, PromoteMsg{Seq: seq, Counter: ctr})
			if ctr > best {
				best = ctr
			}
			// d_i must always reflect the highest counter seen so far.
			if int64(len(a.Delivered())) != best {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
