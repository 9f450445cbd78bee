package obs

import (
	"encoding/json"
	"net/http"
	"sync"
)

// Stage is one point in an op's lifecycle. The canonical live pipeline is
// submit → broadcast → deliver (per replica, possibly more
// than once: an ETOB re-application after a causal-order revision records a
// fresh deliver). "Order-stable" is not a recorded stage — it is the
// retrospective fact that no further deliver arrived — so the timeline
// reports it as the latest deliver timestamp.
type Stage string

// The lifecycle stages stamped by the serving path.
const (
	StageSubmit    Stage = "submit"
	StageBroadcast Stage = "broadcast"
	StageDeliver   Stage = "deliver"
)

// TraceEvent is one stamped lifecycle point.
type TraceEvent struct {
	Stage Stage  `json:"stage"`
	Proc  string `json:"proc,omitempty"`
	At    int64  `json:"at"`
}

// maxEventsPerOp bounds a single op's timeline: a submit, a broadcast, and
// a deliver per replica fit comfortably; a pathological
// re-application storm is truncated rather than growing without bound.
const maxEventsPerOp = 256

// OpTracer records op-lifecycle timelines in a bounded ring: when the
// tracked-op limit is reached the oldest op's whole timeline is evicted
// (FIFO), so a long-lived node traces the most recent window of traffic at a
// fixed memory ceiling. All methods are safe for concurrent use; Record from
// a hot path costs one mutex acquisition and at most one map insert.
//
// Timestamps are caller-defined int64s — the live node stamps wall-clock
// microseconds (time.Now().UnixMicro()), a sim harness would stamp kernel
// ticks — the tracer only orders and reports them.
type OpTracer struct {
	mu      sync.Mutex
	cap     int
	ops     map[string][]TraceEvent
	order   []string // insertion order; head = eviction candidate
	head    int      // first live index in order (amortized queue)
	evicted int64
}

// NewOpTracer returns a tracer bounded to capOps tracked ops (<= 0 means the
// default of 4096).
func NewOpTracer(capOps int) *OpTracer {
	if capOps <= 0 {
		capOps = 4096
	}
	return &OpTracer{cap: capOps, ops: make(map[string][]TraceEvent)}
}

// Record stamps op at stage on proc. The first record of an unknown op
// starts its timeline (evicting the oldest tracked op when full); events past
// maxEventsPerOp are dropped.
func (t *OpTracer) Record(op string, stage Stage, proc string, at int64) {
	if op == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs, ok := t.ops[op]
	if !ok {
		if len(t.ops) >= t.cap {
			t.evictLocked()
		}
		t.order = append(t.order, op)
	}
	if len(evs) >= maxEventsPerOp {
		return
	}
	t.ops[op] = append(evs, TraceEvent{Stage: stage, Proc: proc, At: at})
}

// evictLocked removes the oldest tracked op. The order slice compacts when
// the dead prefix outgrows the live tail, keeping eviction amortized O(1).
func (t *OpTracer) evictLocked() {
	for t.head < len(t.order) {
		op := t.order[t.head]
		t.head++
		if _, live := t.ops[op]; live {
			delete(t.ops, op)
			t.evicted++
			break
		}
	}
	if t.head > len(t.order)/2 {
		t.order = append([]string(nil), t.order[t.head:]...)
		t.head = 0
	}
}

// Timeline returns a copy of op's recorded events in record order (nil when
// the op is unknown or already evicted).
func (t *OpTracer) Timeline(op string) []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs, ok := t.ops[op]
	if !ok {
		return nil
	}
	return append([]TraceEvent(nil), evs...)
}

// Len returns the number of currently tracked ops; Evicted how many timelines
// the ring dropped.
func (t *OpTracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ops)
}

// Evicted returns how many op timelines the ring has dropped.
func (t *OpTracer) Evicted() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// opsLocked returns up to limit most-recent tracked op ids, oldest first.
func (t *OpTracer) opsLocked(limit int) []string {
	live := make([]string, 0, limit)
	for i := len(t.order) - 1; i >= t.head && len(live) < limit; i-- {
		if _, ok := t.ops[t.order[i]]; ok {
			live = append(live, t.order[i])
		}
	}
	for i, j := 0, len(live)-1; i < j; i, j = i+1, j-1 {
		live[i], live[j] = live[j], live[i]
	}
	return live
}

// traceResponse is the JSON shape of GET /trace?op=<id>.
type traceResponse struct {
	Op     string       `json:"op"`
	Events []TraceEvent `json:"events"`
	// OrderStableAt is the latest deliver timestamp — the point after which
	// no replica re-applied the op (as of this response).
	OrderStableAt int64 `json:"order_stable_at,omitempty"`
}

// traceIndex is the JSON shape of GET /trace without an op parameter.
type traceIndex struct {
	Tracked int      `json:"tracked"`
	Evicted int64    `json:"evicted"`
	Recent  []string `json:"recent"`
}

// ServeHTTP serves GET /trace?op=<id> as a JSON timeline, and GET /trace
// without a parameter as an index of recently tracked ops.
func (t *OpTracer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	op := req.URL.Query().Get("op")
	if op == "" {
		t.mu.Lock()
		idx := traceIndex{Tracked: len(t.ops), Evicted: t.evicted, Recent: t.opsLocked(100)}
		t.mu.Unlock()
		_ = json.NewEncoder(w).Encode(idx)
		return
	}
	evs := t.Timeline(op)
	if evs == nil {
		http.Error(w, "unknown op (never traced or evicted)", http.StatusNotFound)
		return
	}
	resp := traceResponse{Op: op, Events: evs}
	for _, ev := range evs {
		if ev.Stage == StageDeliver && ev.At > resp.OrderStableAt {
			resp.OrderStableAt = ev.At
		}
	}
	_ = json.NewEncoder(w).Encode(resp)
}
