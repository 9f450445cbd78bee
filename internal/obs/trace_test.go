package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestOpTracerTimelineAndStableSynthesis(t *testing.T) {
	tr := NewOpTracer(16)
	tr.Record("p1.1", StageSubmit, "n1", 100)
	tr.Record("p1.1", StageBroadcast, "n1", 111)
	tr.Record("p1.1", StageDeliver, "n1", 130)
	tr.Record("p1.1", StageDeliver, "n2", 145)
	tr.Record("p1.1", StageDeliver, "n1", 160) // re-application after reorder

	evs := tr.Timeline("p1.1")
	if len(evs) != 5 {
		t.Fatalf("timeline has %d events, want 5", len(evs))
	}
	if evs[0].Stage != StageSubmit || evs[0].At != 100 {
		t.Errorf("first event = %+v, want submit@100", evs[0])
	}

	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?op=p1.1", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Op            string       `json:"op"`
		Events        []TraceEvent `json:"events"`
		OrderStableAt int64        `json:"order_stable_at"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.OrderStableAt != 160 {
		t.Errorf("order_stable_at = %d, want the LAST deliver 160", resp.OrderStableAt)
	}

	rec = httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?op=nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown op: status %d, want 404", rec.Code)
	}
}

func TestOpTracerRingEviction(t *testing.T) {
	tr := NewOpTracer(8)
	for i := 0; i < 20; i++ {
		op := fmt.Sprintf("p1.%d", i)
		tr.Record(op, StageSubmit, "n1", int64(i))
		tr.Record(op, StageDeliver, "n1", int64(i)+5)
	}
	if tr.Len() != 8 {
		t.Errorf("tracked %d ops, want ring cap 8", tr.Len())
	}
	if tr.Evicted() != 12 {
		t.Errorf("evicted = %d, want 12", tr.Evicted())
	}
	if tr.Timeline("p1.0") != nil {
		t.Error("oldest op must be evicted")
	}
	if evs := tr.Timeline("p1.19"); len(evs) != 2 {
		t.Errorf("newest op timeline has %d events, want 2", len(evs))
	}

	// The index endpoint lists survivors oldest-first.
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var idx struct {
		Tracked int      `json:"tracked"`
		Evicted int64    `json:"evicted"`
		Recent  []string `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if idx.Tracked != 8 || idx.Evicted != 12 || len(idx.Recent) != 8 {
		t.Errorf("index = %+v", idx)
	}
	if idx.Recent[0] != "p1.12" || idx.Recent[7] != "p1.19" {
		t.Errorf("recent window = %v", idx.Recent)
	}
}

func TestOpTracerConcurrent(t *testing.T) {
	tr := NewOpTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				op := fmt.Sprintf("p%d.%d", w, i)
				tr.Record(op, StageSubmit, "n1", int64(i))
				tr.Record(op, StageDeliver, "n1", int64(i)+1)
				_ = tr.Timeline(op)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Errorf("tracked %d, want 64", tr.Len())
	}
}
