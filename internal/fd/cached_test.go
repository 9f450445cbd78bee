package fd

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

// cachedCases builds one detector of every class over a pattern with crashes
// before, at, and after the stabilization times, so segment boundaries of
// every kind are exercised.
func cachedCases() (map[string]Detector, *model.FailurePattern) {
	fp := model.NewFailurePattern(5)
	fp.Crash(4, 55)
	fp.Crash(5, 120)
	return map[string]Detector{
		"omega-stable":   NewOmegaStable(fp, 1),
		"omega-eventual": NewOmegaEventual(fp, 2, 300),
		"omega-rotating": NewOmegaRotating(fp, 1, 300, 40),
		"omega-split":    NewOmegaSplit(fp, 1, 2, 2, 260),
		"sigma":          NewSigma(fp, 200),
		"perfect":        NewPerfect(fp),
		"omega-sigma":    NewOmegaSigma(NewOmegaEventual(fp, 1, 300), NewSigma(fp, 200)),
	}, fp
}

// TestCachedEquivalenceRandomOrder fires seeded random (p, t) queries — in an
// order no kernel would produce, so segments are entered and re-entered
// arbitrarily — and demands the cached answer always equals the direct one.
func TestCachedEquivalenceRandomOrder(t *testing.T) {
	dets, fp := cachedCases()
	for name, det := range dets {
		t.Run(name, func(t *testing.T) {
			c := NewCached(det)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 4000; i++ {
				p := model.ProcID(rng.Intn(fp.N()) + 1)
				tm := model.Time(rng.Intn(600))
				got := c.Value(p, tm)
				want := det.Value(p, tm)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: Cached(%v, %d) = %v, want %v", i, p, tm, got, want)
				}
			}
			hits, misses := c.Stats()
			if hits == 0 {
				t.Errorf("no cache hits over 4000 random queries (misses=%d)", misses)
			}
		})
	}
}

// TestCachedEquivalenceCHTPattern replays the CHT reduction's sampling
// pattern: a monotone round-robin sweep over processes (BuildDAG) followed by
// exact re-queries of every sampled (p, t) pair (CheckProperties). The
// re-query pass must be all hits for segmented detectors.
func TestCachedEquivalenceCHTPattern(t *testing.T) {
	dets, fp := cachedCases()
	for name, det := range dets {
		t.Run(name, func(t *testing.T) {
			c := NewCached(det)
			type query struct {
				p model.ProcID
				t model.Time
			}
			var sampled []query
			now := model.Time(0)
			for s := 0; s < 12; s++ {
				for q := 1; q <= fp.N(); q++ {
					now += 7
					sampled = append(sampled, query{model.ProcID(q), now})
					got := c.Value(model.ProcID(q), now)
					if want := det.Value(model.ProcID(q), now); !reflect.DeepEqual(got, want) {
						t.Fatalf("build pass: Cached(%v, %d) = %v, want %v", q, now, got, want)
					}
				}
			}
			for _, qu := range sampled {
				got := c.Value(qu.p, qu.t)
				if want := det.Value(qu.p, qu.t); !reflect.DeepEqual(got, want) {
					t.Fatalf("verify pass: Cached(%v, %d) = %v, want %v", qu.p, qu.t, got, want)
				}
			}
		})
	}
}

// TestCachedKernelPatternStaysBounded mimics the kernel's per-step query
// stream (monotone staggered ticks) and checks that a stable history is
// computed at most once per process — the memoization the kernel relies on.
func TestCachedKernelPatternStaysBounded(t *testing.T) {
	fp := model.NewFailurePattern(4)
	c := NewCached(NewOmegaStable(fp, 1))
	for tick := 0; tick < 1000; tick++ {
		for q := 1; q <= 4; q++ {
			c.Value(model.ProcID(q), model.Time(tick*5+q))
		}
	}
	hits, misses := c.Stats()
	if misses > 4 {
		t.Errorf("stable history recomputed: misses = %d, want <= 4", misses)
	}
	if hits != 4000-misses {
		t.Errorf("hits = %d, want %d", hits, 4000-misses)
	}
}

// TestCachedAlternatingSegmentsStayCached pins the LRU-over-segments
// behavior: a query stream that alternates between two segments of the same
// process — the CHT verify pass hopping back across a stabilization
// boundary, or quorum code mixing "now" with a recorded instant — must be
// all hits after each segment has been computed once. A single slot per
// process would miss on every query here.
func TestCachedAlternatingSegmentsStayCached(t *testing.T) {
	fp := model.NewFailurePattern(3)
	c := NewCached(NewOmegaEventual(fp, 2, 400)) // two segments per process: [0,400) and [400,∞)
	for i := 0; i < 100; i++ {
		for q := 1; q <= 3; q++ {
			c.Value(model.ProcID(q), 100) // pre-stabilization segment
			c.Value(model.ProcID(q), 500) // post-stabilization segment
		}
	}
	hits, misses := c.Stats()
	if misses > 6 {
		t.Errorf("alternating segments thrash: misses = %d, want <= 6 (2 segments x 3 procs)", misses)
	}
	if hits != 600-misses {
		t.Errorf("hits = %d, want %d", hits, 600-misses)
	}
}

// TestCachedValuesBatch checks the batch path against per-process queries,
// including reuse of the caller's buffer.
func TestCachedValuesBatch(t *testing.T) {
	dets, fp := cachedCases()
	ps := model.Procs(fp.N())
	det := dets["omega-sigma"]
	c := NewCached(det)
	var buf []any
	for _, tm := range []model.Time{0, 150, 199, 200, 299, 300, 500} {
		buf = c.Values(ps, tm, buf)
		if len(buf) != len(ps) {
			t.Fatalf("Values returned %d entries, want %d", len(buf), len(ps))
		}
		for i, p := range ps {
			if want := det.Value(p, tm); !reflect.DeepEqual(buf[i], want) {
				t.Errorf("Values[%v]@%d = %v, want %v", p, tm, buf[i], want)
			}
		}
	}
}

// TestCachedIdempotentWrap: wrapping a Cached must not stack caches.
func TestCachedIdempotentWrap(t *testing.T) {
	fp := model.NewFailurePattern(3)
	c := NewCached(NewPerfect(fp))
	if NewCached(c) != c {
		t.Error("NewCached(NewCached(d)) must return the same wrapper")
	}
	if c.Name() != "P" {
		t.Errorf("Name = %q, want inner name", c.Name())
	}
	if c.Inner().Name() != "P" {
		t.Error("Inner must expose the wrapped detector")
	}
}

// TestSegmentStartContract spot-checks the Segmented contract: queries inside
// one constancy interval share a start, and the start never exceeds t.
func TestSegmentStartContract(t *testing.T) {
	dets, fp := cachedCases()
	for name, det := range dets {
		seg, ok := det.(Segmented)
		if !ok {
			t.Errorf("%s does not implement Segmented", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			for q := 1; q <= fp.N(); q++ {
				p := model.ProcID(q)
				for tm := model.Time(0); tm < 650; tm++ {
					s := seg.SegmentStart(p, tm)
					if s > tm || s < 0 {
						t.Fatalf("SegmentStart(%v, %d) = %d out of range", p, tm, s)
					}
					// Every instant in [s, tm] must be in the same segment and
					// carry the same value — verify at the endpoints.
					if seg.SegmentStart(p, s) != s {
						t.Fatalf("SegmentStart(%v, %d) = %d is not itself a segment start", p, tm, s)
					}
					if !reflect.DeepEqual(det.Value(p, s), det.Value(p, tm)) {
						t.Fatalf("%s: value changed inside segment [%d, %d] at p=%v", name, s, tm, p)
					}
				}
			}
		})
	}
}

// TestCachedLeader: the leadership-observation query must surface the Ω
// component of any history that has one — Omega directly, OmegaSigma through
// the pair — and report ok=false for Ω-free histories, all through the
// segment cache.
func TestCachedLeader(t *testing.T) {
	fp := model.NewFailurePattern(3)
	omega := NewOmegaEventual(fp, 2, 400)
	c := NewCached(omega)
	if l, ok := c.Leader(3, 100); !ok || l != 3 {
		t.Errorf("pre-stab Leader(p3) = (%v, %v), want (p3, true): self-trust phase", l, ok)
	}
	if l, ok := c.Leader(3, 400); !ok || l != 2 {
		t.Errorf("post-stab Leader(p3) = (%v, %v), want (p2, true)", l, ok)
	}
	both := NewCached(NewOmegaSigma(NewOmegaStable(fp, 1), NewSigma(fp, 50)))
	if l, ok := both.Leader(1, 10); !ok || l != 1 {
		t.Errorf("OmegaSigma Leader = (%v, %v), want (p1, true)", l, ok)
	}
	sigmaOnly := NewCached(NewSigma(fp, 50))
	if _, ok := sigmaOnly.Leader(1, 10); ok {
		t.Error("a Σ-only history has no leader to observe")
	}
}
