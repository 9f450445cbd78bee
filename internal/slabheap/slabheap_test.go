package slabheap

import (
	"math/rand"
	"testing"
)

// entry is a test value that records the key it was queued under, so a pop
// can check that the value stayed attached to its key.
type entry struct {
	at, ord int64
	ref     *int64 // a reference Release must drop
}

// TestTotalOrder drains a randomly built heap and checks that keys come out
// in strict (At, Ord) order, the total order the kernel's determinism rests
// on, including pushes mid-drain, popped slots pushed again under a later
// key (a resend), and slots settled while queued and released only when
// their key pops (an acked envelope); values stay attached to their keys
// through slot recycling.
func TestTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Heap[entry]
	ord := int64(0)
	settled := map[int32]bool{}
	push := func(at int64, slot int32) {
		ord++
		*h.Slot(slot) = entry{at: at, ord: ord, ref: new(int64)}
		h.Push(at, ord, slot)
	}
	for i := 0; i < 500; i++ {
		push(int64(rng.Intn(64)), h.Alloc()) // dense times: many ties broken by Ord
	}
	var prev Key
	popped, repushed, released := 0, 0, 0
	for h.Len() > 0 {
		if top := h.Top(); h.Slot(top.Slot).at != top.At {
			t.Fatalf("Top %+v does not match its slot %+v", top, *h.Slot(top.Slot))
		}
		k := h.Pop()
		if popped > 0 && !less(&prev, &k) {
			t.Fatalf("pop %d out of order: %+v then %+v", popped, prev, k)
		}
		if e := h.Slot(k.Slot); e.at != k.At || e.ord != k.Ord {
			t.Fatalf("value %+v detached from key %+v", *e, k)
		}
		prev = k
		popped++
		switch {
		case settled[k.Slot]:
			delete(settled, k.Slot)
			h.Release(k.Slot)
			released++
		case popped%5 == 0 && popped < 900:
			push(k.At+1+int64(rng.Intn(32)), k.Slot) // resend: same slot, later key
			repushed++
		default:
			h.Release(k.Slot)
		}
		if popped%3 == 0 && popped < 900 {
			push(k.At+int64(rng.Intn(32)), h.Alloc())
		}
		if popped%7 == 0 && h.Len() > 0 {
			settled[h.Top().Slot] = true // acked while queued
		}
	}
	if popped < 500 || repushed == 0 || released == 0 {
		t.Fatalf("drained %d keys, re-pushed %d, released %d settled", popped, repushed, released)
	}
}

// TestReleaseZeroesAndRecycles checks the slab stays flat under churn: a
// long push/pop cycle must not grow it beyond the most keys ever queued, a
// released slot comes back zeroed, and Reset empties the heap.
func TestReleaseZeroesAndRecycles(t *testing.T) {
	var h Heap[entry]
	ord := int64(0)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 8; i++ {
			ord++
			s := h.Alloc()
			if *h.Slot(s) != (entry{}) {
				t.Fatalf("Alloc returned a dirty slot: %+v", *h.Slot(s))
			}
			*h.Slot(s) = entry{at: int64(round*10 + i), ord: ord, ref: new(int64)}
			h.Push(int64(round*10+i), ord, s)
		}
		for i := 0; i < 8; i++ {
			h.Release(h.Pop().Slot)
		}
	}
	if len(h.slots) > 8 {
		t.Errorf("slab grew to %d for a queue that never exceeds 8", len(h.slots))
	}
	h.Push(1, 1, h.Alloc())
	h.Reset()
	if h.Len() != 0 || len(h.slots) != 0 || len(h.free) != 0 {
		t.Errorf("Reset left %d keys, %d slots, %d free", h.Len(), len(h.slots), len(h.free))
	}
}

// TestTopMatchesPop verifies the Top/Pop pair used by the kernel's horizon
// check and the resend queue's due check.
func TestTopMatchesPop(t *testing.T) {
	var h Heap[entry]
	for i, at := range []int64{9, 3, 7, 3, 1} {
		h.Push(at, int64(i+1), h.Alloc())
	}
	for h.Len() > 0 {
		want := h.Top()
		if got := h.Pop(); got != want {
			t.Fatalf("Top %+v != popped %+v", want, got)
		}
	}
}
