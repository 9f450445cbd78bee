package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWritePrometheusGolden pins the full exposition of a populated registry:
// one metric of every kind, values chosen so no two lines could be confused.
// The output is sorted by name, so the golden is stable by construction.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("node_accepted_total").Add(7)
	r.Gauge("batch_target").Set(12)
	r.CounterFunc("kernel_steps_total", func() int64 { return 99_000 })
	r.GaugeFunc("retransmit_pending_envelopes", func() int64 { return 3 })
	h := r.Histogram("http_request_duration_us")
	for v := int64(1); v <= 10; v++ {
		h.Record(v)
	}
	hooked := r.Counter("retransmit_resends_total")
	r.OnScrape(func() { hooked.Set(41) })

	const want = `# TYPE batch_target gauge
batch_target 12
# TYPE http_request_duration_us summary
http_request_duration_us{quantile="0.5"} 5
http_request_duration_us{quantile="0.99"} 10
http_request_duration_us{quantile="0.999"} 10
http_request_duration_us_sum 55
http_request_duration_us_count 10
# TYPE kernel_steps_total counter
kernel_steps_total 99000
# TYPE node_accepted_total counter
node_accepted_total 7
# TYPE retransmit_pending_envelopes gauge
retransmit_pending_envelopes 3
# TYPE retransmit_resends_total counter
retransmit_resends_total 41
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// The golden must round-trip through the strict parser.
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText on own exposition: %v", err)
	}
	for key, v := range map[string]int64{
		"node_accepted_total":                      7,
		"kernel_steps_total":                       99000,
		"retransmit_resends_total":                 41,
		"batch_target":                             12,
		`http_request_duration_us{quantile="0.5"}`: 5,
		"http_request_duration_us_count":           10,
		"http_request_duration_us_sum":             55,
	} {
		if samples[key] != v {
			t.Errorf("parsed %s = %d, want %d", key, samples[key], v)
		}
	}
}

// TestRegistryIdempotentAndChecked pins the constructor contract: same name
// same metric, kind conflicts panic.
func TestRegistryIdempotentAndChecked(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	if r.Counter("x_total") != c {
		t.Error("second Counter(x_total) returned a different metric")
	}
	if r.Value("x_total") != 1 {
		t.Errorf("Value(x_total) = %d, want 1", r.Value("x_total"))
	}
	if r.Value("missing") != 0 {
		t.Error("Value of unregistered name must be 0")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("kind conflict", func() { r.Gauge("x_total") })
	mustPanic("func over counter", func() { r.CounterFunc("x_total", func() int64 { return 0 }) })
	mustPanic("invalid name", func() { r.Counter("9starts_with_digit") })
	mustPanic("invalid char", func() { r.Counter("has-dash") })
}

// TestRegistryConcurrentScrapeUnderWrites is the -race test the exposition
// path must survive: writers hammer every metric kind while scrapers pull
// full expositions and hooks fire. Every scrape must also PARSE — a torn
// line would fail the strict parser even when the race detector is off.
func TestRegistryConcurrentScrapeUnderWrites(t *testing.T) {
	r := NewRegistry()
	var hookSrc atomic.Int64
	mirrored := r.Counter("mirrored_total")
	r.OnScrape(func() { mirrored.Set(hookSrc.Load()) })
	r.GaugeFunc("fn_gauge", func() int64 { return hookSrc.Load() })

	var stop atomic.Bool
	var writers, scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := r.Counter("writes_total")
			g := r.Gauge("depth")
			h := r.Histogram("latency_us")
			for i := int64(0); !stop.Load(); i++ {
				c.Inc()
				g.Set(i % 100)
				h.Record(i % 4096)
				hookSrc.Add(1)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != 200 {
					t.Errorf("scrape status %d", rec.Code)
					return
				}
				if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
					t.Errorf("content type %q", ct)
					return
				}
				if _, err := ParseText(rec.Body); err != nil {
					t.Errorf("scrape %d unparseable: %v", i, err)
					return
				}
			}
		}()
	}
	// Scrapers run to completion against live writers; only then do the
	// writers stop, so every scrape raced real traffic.
	scrapers.Wait()
	stop.Store(true)
	writers.Wait()

	final := r.Value("writes_total")
	if final == 0 {
		t.Error("writers recorded nothing")
	}
}
