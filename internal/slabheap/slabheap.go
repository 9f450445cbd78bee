// Package slabheap is the priority queue under the simulation kernel's event
// queue and the retransmission layer's resend queue: a 4-ary min-heap of
// small pointer-free keys over a slab of reusable value slots.
//
// A key is (At, Ord, Slot): entries pop in lexicographic (At, Ord) order,
// and Slot addresses the value in the slab. Sift operations therefore move
// 24-byte keys, not values and not GC-visible pointers, while values are
// stored in place, one slab slot each, recycled on release, so steady-state
// use allocates nothing per entry. The 4-ary layout halves the depth of a
// binary heap; the wider child scan is cheap on adjacent keys.
//
// Callers that keep Ord unique per heap get a total order, so every correct
// heap pops their entries in one sequence: the kernel's (t, seq) and the
// resend queue's (due tick, send ordinal) both do, which is what keeps
// seeded runs reproducible regardless of this file's internals.
package slabheap

import "slices"

// Key is one queued entry: its place in the order and its value's slot.
type Key struct {
	At, Ord int64
	Slot    int32
}

func less(a, b *Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Ord < b.Ord
}

// Heap is a min-heap of Keys whose values of type V live in its slab. The
// zero Heap is empty and ready to use.
type Heap[V any] struct {
	keys  []Key
	slots []V
	free  []int32 // released slots, reused before the slab grows
}

// Grow reserves room for n more queued values, so that the first n pushes
// onto an empty heap allocate nothing.
func (h *Heap[V]) Grow(n int) {
	h.keys = slices.Grow(h.keys, n)
	h.slots = slices.Grow(h.slots, n)
}

// Len returns the number of queued keys.
func (h *Heap[V]) Len() int { return len(h.keys) }

// Top returns the minimum key without removing it. The heap must not be
// empty.
func (h *Heap[V]) Top() Key { return h.keys[0] }

// Slot returns the value stored in slot i. The pointer is valid until the
// next Alloc, which may grow and move the slab; a caller that queues while
// holding a value keeps the index and re-resolves it.
func (h *Heap[V]) Slot(i int32) *V { return &h.slots[i] }

// Alloc reserves a zero-valued slot and returns its index. The slot is not
// queued until Push.
func (h *Heap[V]) Alloc() int32 {
	if n := len(h.free); n > 0 {
		i := h.free[n-1]
		h.free = h.free[:n-1]
		return i
	}
	var zero V
	h.slots = append(h.slots, zero)
	return int32(len(h.slots) - 1)
}

// Push queues slot at (at, ord). A popped slot may be pushed again.
func (h *Heap[V]) Push(at, ord int64, slot int32) {
	h.keys = append(h.keys, Key{At: at, Ord: ord, Slot: slot})
	up(h.keys, len(h.keys)-1)
}

// Pop removes and returns the minimum key. The heap must not be empty. The
// caller owns the key's slot: it pushes it again or releases it.
func (h *Heap[V]) Pop() Key {
	q := h.keys
	top := q[0]
	n := len(q) - 1
	h.keys = q[:n]
	if n > 0 {
		q[0] = q[n]
		down(h.keys, 0)
	}
	return top
}

// Release zeroes a slot that is not queued, dropping its references for the
// GC, and recycles it for a later Alloc.
func (h *Heap[V]) Release(slot int32) {
	var zero V
	h.slots[slot] = zero
	h.free = append(h.free, slot)
}

// Reset empties the heap and its slab, keeping the allocated capacity.
func (h *Heap[V]) Reset() {
	clear(h.slots)
	h.keys, h.slots, h.free = h.keys[:0], h.slots[:0], h.free[:0]
}

func up(q []Key, i int) {
	k := q[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(&k, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
}

func down(q []Key, i int) {
	n := len(q)
	k := q[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if less(&q[c], &q[m]) {
				m = c
			}
		}
		if !less(&q[m], &k) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = k
}
