package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-footprint log-bucketed latency histogram in the HDR
// style: values 0..31 are recorded exactly, and each further power of two is
// split into 32 sub-buckets, bounding the relative quantile error at ~3%
// while covering the full non-negative int64 range in a 16 KiB counts array.
// No dependency, no allocation after construction, deterministic for a
// deterministic record sequence. The zero value is ready to use.
//
// Record is safe for concurrent use (atomic adds plus CAS loops on the
// extremes), so a Histogram can sit in a serving path and be scraped while
// requests are in flight. Reads taken during concurrent writes are weakly
// consistent — count, sum, and buckets are each atomically correct but are
// not a single snapshot — which is the standard scrape contract. For a
// single-threaded recorder (the simulator) every accessor is exact.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	// minP stores min+1 so the zero value means "nothing recorded yet" and
	// concurrent first records race benignly through the CAS loop.
	minP int64
	max  int64
}

const (
	histSubBuckets = 32 // sub-buckets per power of two: 2^5
	histSubBits    = 5
	// 32 exact buckets + one row of 32 per remaining power of two.
	histBuckets = histSubBuckets + (63-histSubBits)*histSubBuckets
)

// Record adds one value. Negative values clamp to zero (latency cannot be
// negative; a clamp beats a panic in a measurement path).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	for {
		cur := atomic.LoadInt64(&h.minP)
		if cur != 0 && cur-1 <= v {
			break
		}
		if atomic.CompareAndSwapInt64(&h.minP, cur, v+1) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&h.max)
		if v <= cur {
			break
		}
		if atomic.CompareAndSwapInt64(&h.max, cur, v) {
			break
		}
	}
	atomic.AddInt64(&h.n, 1)
	atomic.AddInt64(&h.sum, v)
	atomic.AddInt64(&h.counts[histBucketOf(v)], 1)
}

func histBucketOf(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v ∈ [2^exp, 2^exp+1), exp >= 5
	base := exp - histSubBits
	sub := int((v >> base) - histSubBuckets) // 0..31
	return histSubBuckets*(base+1) + sub
}

// histBucketValue returns the representative (midpoint) value of bucket i.
func histBucketValue(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	base := i/histSubBuckets - 1
	sub := i % histSubBuckets
	lo := int64(histSubBuckets+sub) << base
	return lo + (int64(1)<<base)/2
}

// Count returns how many values were recorded.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.n) }

// Min and Max return the exact extremes of the recorded values (0 when empty).
func (h *Histogram) Min() int64 {
	mp := atomic.LoadInt64(&h.minP)
	if mp == 0 {
		return 0
	}
	return mp - 1
}

// Max returns the exact maximum recorded value.
func (h *Histogram) Max() int64 { return atomic.LoadInt64(&h.max) }

// Sum returns the exact sum of the recorded values.
func (h *Histogram) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := atomic.LoadInt64(&h.n)
	if n == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&h.sum)) / float64(n)
}

// Quantile returns the approximate q-quantile (q in [0,1]) of the recorded
// values: the representative value of the bucket containing the rank-⌈q·n⌉
// value. Exact for values < 32; within ~3% above. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	n := atomic.LoadInt64(&h.n)
	if n == 0 {
		return 0
	}
	min, max := h.Min(), h.Max()
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += atomic.LoadInt64(&h.counts[i])
		if seen >= rank {
			v := histBucketValue(i)
			// Clamp to the exact extremes: the top/bottom buckets may extend
			// past what was actually recorded.
			if v > max {
				v = max
			}
			if v < min {
				v = min
			}
			return v
		}
	}
	return max
}

// Merge folds other into h (exact: bucket-wise addition).
func (h *Histogram) Merge(other *Histogram) {
	if other.Count() == 0 {
		return
	}
	for {
		cur := atomic.LoadInt64(&h.minP)
		omp := atomic.LoadInt64(&other.minP)
		if omp == 0 || (cur != 0 && cur <= omp) {
			break
		}
		if atomic.CompareAndSwapInt64(&h.minP, cur, omp) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&h.max)
		om := atomic.LoadInt64(&other.max)
		if om <= cur {
			break
		}
		if atomic.CompareAndSwapInt64(&h.max, cur, om) {
			break
		}
	}
	atomic.AddInt64(&h.n, atomic.LoadInt64(&other.n))
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&other.sum))
	for i := range h.counts {
		if c := atomic.LoadInt64(&other.counts[i]); c != 0 {
			atomic.AddInt64(&h.counts[i], c)
		}
	}
}

// String summarizes the histogram (for logs and test failures).
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p99=%d p999=%d max=%d mean=%.1f",
		h.Count(), h.Min(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max(), h.Mean())
}
