package fd

import "repro/internal/model"

// Segmented is an optional Detector refinement for histories that are
// piecewise constant in time — which every oracle in this package is, because
// a history H(p, ·) changes only at finitely many structural instants (a
// stabilization time, a crash, a rotation boundary).
//
// SegmentStart(p, t) must return the start s ≤ t of the maximal interval
// [s, e) containing t on which Value(p, ·) is constant. Two queries inside
// one segment must return the same s, and queries in different segments must
// return different s — the segment start doubles as the cache key in Cached.
// Returning t itself is always sound (it degrades caching to exact-time
// memoization) and is the required fallback when constancy cannot be proved.
type Segmented interface {
	Detector
	SegmentStart(p model.ProcID, t model.Time) model.Time
}

// Cached memoizes a Detector. Soundness rests on the Detector contract
// (Value is a deterministic, side-effect-free function of (p, t)) plus, when
// the detector is Segmented, the segment contract above: within one segment
// the value cannot change, so one computed value serves every query in it.
//
// The cache keeps a small fixed number of entries per process — the
// cacheWays segments (or exact times) most recently queried for that
// process, in LRU order — so memory stays O(ways × n) no matter how long a
// run gets or how many segments its history accumulates. This fits the hot
// query patterns:
//
//   - the kernel's per-step query, where t advances monotonically and stays
//     inside one segment for long stretches (a stable Ω run is one segment);
//   - the CHT reduction's sampling, which re-queries identical (p, t) pairs
//     when verifying DAG properties — and, unlike the kernel, hops BACK
//     across segment boundaries, which a single slot per process would
//     thrash on (every boundary crossing evicts the segment about to be
//     re-queried);
//   - protocol code (quorum Σ re-checks, leadership hooks) interleaving a
//     current-time query with a recorded earlier instant.
//
// Cached values are returned by reference: callers must treat detector
// values (SigmaValue, SuspectValue, ...) as immutable, which the Detector
// contract already demands. A Cached instance is NOT safe for concurrent
// use; give each kernel its own wrapper (sim.New does this automatically)
// and never share one across concurrently running kernels.
type Cached struct {
	inner Detector
	seg   Segmented // nil when inner does not implement Segmented
	sets  []cacheSet
	hits  int64
	miss  int64
}

// cacheWays is the per-process associativity: how many distinct segments a
// process's cache set holds before LRU eviction. Four covers every observed
// alternation pattern (kernel monotone = 1, CHT build/verify straddling a
// boundary = 2, quorum code mixing "now" with a recorded instant = 3) with
// one spare, while keeping the hit path a scan of four adjacent entries.
const cacheWays = 4

// cacheSet is one process's LRU set, MRU-first: slots[0] is the most
// recently used of the n valid entries. A hit rotates the entry to the
// front; a miss inserts at the front, evicting slots[n-1] when full.
type cacheSet struct {
	n     int
	slots [cacheWays]cacheSlot
}

type cacheSlot struct {
	key model.Time // segment start (Segmented) or exact query time
	val any
}

var _ Detector = (*Cached)(nil)

// NewCached wraps d in a memoizing cache. Wrapping an already-cached
// detector returns it unchanged.
func NewCached(d Detector) *Cached {
	if c, ok := d.(*Cached); ok {
		return c
	}
	c := &Cached{inner: d}
	if s, ok := d.(Segmented); ok {
		c.seg = s
	}
	return c
}

// Name implements Detector.
func (c *Cached) Name() string { return c.inner.Name() }

// Inner returns the wrapped detector.
func (c *Cached) Inner() Detector { return c.inner }

// Value implements Detector: H(p, t), served from the per-process LRU set
// when the query lands in a segment already computed for p.
func (c *Cached) Value(p model.ProcID, t model.Time) any {
	i := int(p) - 1
	if i < 0 {
		return c.inner.Value(p, t)
	}
	if i >= len(c.sets) {
		grown := make([]cacheSet, i+1)
		copy(grown, c.sets)
		c.sets = grown
	}
	key := t
	if c.seg != nil {
		key = c.seg.SegmentStart(p, t)
	}
	set := &c.sets[i]
	for w := 0; w < set.n; w++ {
		if set.slots[w].key != key {
			continue
		}
		hit := set.slots[w]
		copy(set.slots[1:w+1], set.slots[:w]) // move-to-front keeps LRU order
		set.slots[0] = hit
		c.hits++
		return hit.val
	}
	v := c.inner.Value(p, t)
	if set.n < cacheWays {
		set.n++
	}
	copy(set.slots[1:set.n], set.slots[:set.n-1])
	set.slots[0] = cacheSlot{key: key, val: v}
	c.miss++
	return v
}

// Values is the batch query path: it fills out (allocating it if nil or too
// short) with H(p, t) for each p in ps, hitting the cache per process. Sweep
// drivers that inspect a whole configuration at one instant use this instead
// of n separate Value calls.
func (c *Cached) Values(ps []model.ProcID, t model.Time, out []any) []any {
	if cap(out) < len(ps) {
		out = make([]any, len(ps))
	}
	out = out[:len(ps)]
	for i, p := range ps {
		out[i] = c.Value(p, t)
	}
	return out
}

// ValuesAt is the vectorized sampling path: it fills out (allocating it if
// nil or too short) with H(ps[i], ts[i]) for each index, hitting the
// per-process cache entry by entry. The CHT DAG builder uses this to sample
// a whole sweep — every alive process at its slot time — in one call against
// a reused scratch slice; Values remains the single-instant convenience.
func (c *Cached) ValuesAt(ps []model.ProcID, ts []model.Time, out []any) []any {
	if cap(out) < len(ps) {
		out = make([]any, len(ps))
	}
	out = out[:len(ps)]
	for i, p := range ps {
		out[i] = c.Value(p, ts[i])
	}
	return out
}

// Leader is the leadership-observation query: the Ω component of H(p, t) —
// the leader currently output at process p's failure-detector module — served
// through the same per-segment cache as Value, with ok=false when the wrapped
// history has no Ω component (a plain Σ or P history). The kernel's
// leadership hook (sim.LeaderAware) is built on this method, which is how
// protocol-aware network models such as adversary.LeaderStarver read the
// run's current leader out of any detector's history segments without
// re-deriving them.
func (c *Cached) Leader(p model.ProcID, t model.Time) (model.ProcID, bool) {
	return LeaderOf(c.Value(p, t))
}

// Stats reports cache hits and misses since construction.
func (c *Cached) Stats() (hits, misses int64) { return c.hits, c.miss }
