package retransmit

// resendHeap is the sender's resend queue: a 4-ary min-heap ordered by
// (dueTick, ord), following the slab layout of internal/sim's event heap. The
// heap itself holds compact pointer-free keys; the pending envelopes live in
// a slab of reusable slots addressed by index, so sift operations move
// 20-byte keys rather than envelope values, and steady-state traffic
// allocates no per-envelope heap nodes.
//
// The queue replaces a linear scan of every unacked envelope per Tick. A tick
// now touches only envelopes whose dueTick has arrived: peek, pop the due
// prefix, resend, re-push with the next backoff. Under a large in-flight
// window with exponential backoff, the overwhelming majority of pending
// envelopes are NOT due on any given tick — the scan was O(pending), the
// heap is O(due·log pending).
//
// Acked envelopes are removed lazily: the ack marks the slot and deletes the
// ack-lookup map entry; the key stays queued until its dueTick pops it, at
// which point the slot is released. The lingering key is bounded by one
// backoff interval (≤ MaxRTO + jitter), so acked state drains on the same
// timescale the old per-tick compaction achieved. Payload references are
// released eagerly by the ack itself, so the lingering slot pins no
// protocol data.
//
// Ordering: ord is the envelope's global send ordinal, unique per sender
// incarnation, making (dueTick, ord) a total order. Resends within one tick
// are issued in ord order — exactly the order the old linear scan produced —
// so the seeded jitter stream is drawn in the identical sequence and wrapped
// kernel runs remain bit-for-bit reproducible across this change (the golden
// suite pins this).
type resendHeap struct {
	keys  []resendKey
	slots []pending // payload storage; keys[i].slot indexes into this
	free  []int32   // recycled slot indexes
}

type resendKey struct {
	due  int64
	ord  int64
	slot int32
}

func resendLess(a, b *resendKey) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.ord < b.ord
}

func (h *resendHeap) len() int { return len(h.keys) }

// peekDue returns the earliest queued dueTick. Callers must ensure the heap
// is non-empty.
func (h *resendHeap) peekDue() int64 { return h.keys[0].due }

// alloc reserves a slab slot for a new envelope (contents are the caller's to
// fill) and returns its index. The slot is not queued until push.
func (h *resendHeap) alloc() int32 {
	if n := len(h.free); n > 0 {
		idx := h.free[n-1]
		h.free = h.free[:n-1]
		h.slots[idx] = pending{}
		return idx
	}
	h.slots = append(h.slots, pending{})
	return int32(len(h.slots) - 1)
}

// push queues (or re-queues, after a resend) the envelope in slot for its
// next due tick.
func (h *resendHeap) push(due, ord int64, slot int32) {
	h.keys = append(h.keys, resendKey{due: due, ord: ord, slot: slot})
	h.up(len(h.keys) - 1)
}

// pop removes and returns the minimum key. The caller owns the slot: resend
// and re-push it, or release it.
func (h *resendHeap) pop() resendKey {
	q := h.keys
	top := q[0]
	n := len(q) - 1
	last := q[n]
	h.keys = q[:n]
	if n > 0 {
		q[0] = last
		h.down(0)
	}
	return top
}

// release recycles a slot whose envelope is settled (acked or abandoned),
// dropping its payload reference for the GC.
func (h *resendHeap) release(slot int32) {
	h.slots[slot].payload = nil
	h.free = append(h.free, slot)
}

// reset empties the heap for a fresh incarnation, keeping the allocated
// capacity.
func (h *resendHeap) reset() {
	h.keys = h.keys[:0]
	h.free = h.free[:0]
	for i := range h.slots {
		h.slots[i] = pending{}
	}
	h.slots = h.slots[:0]
}

func (h *resendHeap) up(i int) {
	q := h.keys
	k := q[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !resendLess(&k, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
}

func (h *resendHeap) down(i int) {
	q := h.keys
	n := len(q)
	k := q[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if resendLess(&q[c], &q[min]) {
				min = c
			}
		}
		if !resendLess(&q[min], &k) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = k
}
