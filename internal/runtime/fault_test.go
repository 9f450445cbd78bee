package runtime

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// recordingTransport is a stub inner Transport that records every frame
// Send hands it, in order.
type recordingTransport struct {
	self model.ProcID
	n    int

	mu     sync.Mutex
	frames []Frame
	inbox  chan Frame
}

func newRecordingTransport(self model.ProcID, n int) *recordingTransport {
	return &recordingTransport{self: self, n: n, inbox: make(chan Frame, 1024)}
}

func (r *recordingTransport) Self() model.ProcID { return r.self }
func (r *recordingTransport) N() int             { return r.n }
func (r *recordingTransport) Recv() <-chan Frame { return r.inbox }
func (r *recordingTransport) Dropped() int64     { return 0 }
func (r *recordingTransport) Close() error       { return nil }

func (r *recordingTransport) Send(f Frame) error {
	r.mu.Lock()
	r.frames = append(r.frames, f)
	r.mu.Unlock()
	return nil
}

func (r *recordingTransport) sent() []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Frame, len(r.frames))
	copy(out, r.frames)
	return out
}

// TestFaultScheduleDeterministicPerSeed pins the injector's determinism
// contract: the fate of the k-th frame on a directed link is a pure function
// of (Seed, link, k) — two injectors with the same config produce the
// identical decision schedule, and a different seed produces a different one.
func TestFaultScheduleDeterministicPerSeed(t *testing.T) {
	cfg := FaultConfig{
		Seed: 7, Drop: 0.2, Burst: 3,
		DelayMin: time.Millisecond, DelayMax: 9 * time.Millisecond,
		Duplicate: 0.1, Reorder: 0.15, ResetEvery: 25,
	}
	a := NewFaultTransport(newRecordingTransport(1, 3), cfg)
	b := NewFaultTransport(newRecordingTransport(1, 3), cfg)
	differs := false
	other := cfg
	other.Seed = 8
	c := NewFaultTransport(newRecordingTransport(1, 3), other)
	for _, link := range []linkID{{1, 2}, {1, 3}, {2, 1}, {3, 2}} {
		for k := int64(0); k < 512; k++ {
			fa, fb := a.decide(link.from, link.to, k), b.decide(link.from, link.to, k)
			if fa != fb {
				t.Fatalf("link %v frame %d: same seed, different fates: %+v vs %+v", link, k, fa, fb)
			}
			if la, lb := a.burstLen(link.from, link.to, k, 4), b.burstLen(link.from, link.to, k, 4); la != lb {
				t.Fatalf("link %v frame %d: same seed, different burst lengths: %d vs %d", link, k, la, lb)
			}
			if fa != c.decide(link.from, link.to, k) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 produced identical 2048-frame fate schedules; the seed is not reaching the hash")
	}
}

// TestFaultTransportZeroConfigPassesThrough: a zero FaultConfig injects
// nothing — every frame forwards unchanged and in order.
func TestFaultTransportZeroConfigPassesThrough(t *testing.T) {
	rec := newRecordingTransport(1, 3)
	ft := NewFaultTransport(rec, FaultConfig{})
	for k := 0; k < 50; k++ {
		if err := ft.Send(Frame{From: 1, To: 2, ID: int64(k)}); err != nil {
			t.Fatal(err)
		}
	}
	got := rec.sent()
	if len(got) != 50 {
		t.Fatalf("zero-config injector forwarded %d of 50 frames", len(got))
	}
	for k, f := range got {
		if f.ID != int64(k) {
			t.Fatalf("zero-config injector reordered: frame %d has ID %d", k, f.ID)
		}
	}
	if ft.Injected() != 0 || ft.Duplicated() != 0 {
		t.Fatalf("zero-config injector reported faults: injected=%d dup=%d", ft.Injected(), ft.Duplicated())
	}
}

// TestFaultTransportPartitionAndHeal: a two-sided partition drops frames
// crossing sides in both directions, passes same-side frames, and heals on
// command. Disabling the injector heals too.
func TestFaultTransportPartitionAndHeal(t *testing.T) {
	rec := newRecordingTransport(1, 4)
	ft := NewFaultTransport(rec, FaultConfig{})
	ft.Partition(1, 2)
	cross := []Frame{{From: 1, To: 3}, {From: 3, To: 1}, {From: 2, To: 4}, {From: 4, To: 2}}
	for _, f := range cross {
		_ = ft.Send(f)
	}
	sameSide := []Frame{{From: 1, To: 2}, {From: 3, To: 4}, {From: 4, To: 3}}
	for _, f := range sameSide {
		_ = ft.Send(f)
	}
	if got := len(rec.sent()); got != len(sameSide) {
		t.Fatalf("partitioned injector forwarded %d frames, want only the %d same-side ones", got, len(sameSide))
	}
	if ft.Injected() != int64(len(cross)) {
		t.Fatalf("partition dropped %d frames, want %d", ft.Injected(), len(cross))
	}
	if !ft.Partitioned() {
		t.Fatal("Partitioned() false while a partition is in force")
	}
	ft.Heal()
	if ft.Partitioned() {
		t.Fatal("Partitioned() true after Heal")
	}
	for _, f := range cross {
		_ = ft.Send(f)
	}
	if got := len(rec.sent()); got != len(sameSide)+len(cross) {
		t.Fatalf("healed injector forwarded %d frames total, want %d", got, len(sameSide)+len(cross))
	}
	// A disabled injector is a healed network even mid-partition.
	ft.Partition(1, 2)
	ft.SetEnabled(false)
	_ = ft.Send(Frame{From: 1, To: 3})
	if got := len(rec.sent()); got != len(sameSide)+len(cross)+1 {
		t.Fatal("disabled injector still enforced the partition")
	}
}

// TestFaultTransportSelfSendErrors: a Proc delivers its frames to itself
// from its own loop, so a frame to self is no peer's. Send rejects it, with
// injection on or off, and hands nothing to the inner transport.
func TestFaultTransportSelfSendErrors(t *testing.T) {
	rec := newRecordingTransport(1, 3)
	ft := NewFaultTransport(rec, FaultConfig{Seed: 1, Drop: 0.9})
	for _, enabled := range []bool{true, false} {
		ft.SetEnabled(enabled)
		if err := ft.Send(Frame{From: 1, To: 1}); err == nil {
			t.Errorf("self-send with injection enabled=%v: no error", enabled)
		}
	}
	if got := len(rec.sent()); got != 0 {
		t.Fatalf("%d self-frames reached the inner transport", got)
	}
}

// TestFaultTransportDropsAndDuplicates: with a heavy drop profile a
// substantial fraction of frames is lost; with duplication, extra copies
// appear. Counters account for both.
func TestFaultTransportDropsAndDuplicates(t *testing.T) {
	rec := newRecordingTransport(1, 2)
	ft := NewFaultTransport(rec, FaultConfig{Seed: 3, Drop: 0.4})
	const frames = 400
	for k := 0; k < frames; k++ {
		_ = ft.Send(Frame{From: 1, To: 2, ID: int64(k)})
	}
	dropped := ft.Injected()
	if dropped == 0 || dropped == frames {
		t.Fatalf("Drop=0.4 dropped %d of %d frames, want some but not all", dropped, frames)
	}
	if got := int64(len(rec.sent())); got+dropped != frames {
		t.Fatalf("accounting: %d forwarded + %d dropped != %d sent", len(rec.sent()), dropped, frames)
	}

	rec2 := newRecordingTransport(1, 2)
	dup := NewFaultTransport(rec2, FaultConfig{Seed: 3, Duplicate: 0.5})
	for k := 0; k < frames; k++ {
		_ = dup.Send(Frame{From: 1, To: 2, ID: int64(k)})
	}
	if dup.Duplicated() == 0 {
		t.Fatal("Duplicate=0.5 produced no duplicates in 400 frames")
	}
	deadline := time.Now().Add(2 * time.Second)
	for int64(len(rec2.sent())) != frames+dup.Duplicated() {
		if time.Now().After(deadline) {
			t.Fatalf("forwarded %d frames, want %d + %d duplicates", len(rec2.sent()), frames, dup.Duplicated())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultTransportReorderSwapsButNeverLoses: reordered frames are held
// back and overtaken, not dropped — every frame is eventually forwarded.
func TestFaultTransportReorderSwapsButNeverLoses(t *testing.T) {
	rec := newRecordingTransport(1, 2)
	ft := NewFaultTransport(rec, FaultConfig{Seed: 11, Reorder: 0.3})
	const frames = 200
	for k := 0; k < frames; k++ {
		_ = ft.Send(Frame{From: 1, To: 2, ID: int64(k)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(rec.sent()) != frames {
		if time.Now().After(deadline) {
			t.Fatalf("reorder lost frames: %d of %d forwarded", len(rec.sent()), frames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	seen := make(map[int64]bool, frames)
	inOrder := true
	last := int64(-1)
	for _, f := range rec.sent() {
		if seen[f.ID] {
			t.Fatalf("frame %d forwarded twice by reorder-only profile", f.ID)
		}
		seen[f.ID] = true
		if f.ID < last {
			inOrder = false
		}
		last = f.ID
	}
	if inOrder {
		t.Fatal("Reorder=0.3 left 200 frames in perfect order; the reorder path never fired")
	}
}

// TestFaultTransportScheduleScriptsAtWallInstants: Schedule runs control
// steps after a wall delay, the chaos harness's scripting primitive.
func TestFaultTransportScheduleScriptsAtWallInstants(t *testing.T) {
	rec := newRecordingTransport(1, 2)
	ft := NewFaultTransport(rec, FaultConfig{})
	ft.Schedule(10*time.Millisecond, func(f *FaultTransport) { f.Partition(1) })
	deadline := time.Now().Add(2 * time.Second)
	for !ft.Partitioned() {
		if time.Now().After(deadline) {
			t.Fatal("scheduled partition never took effect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ft.Schedule(10*time.Millisecond, func(f *FaultTransport) { f.Heal() })
	for ft.Partitioned() {
		if time.Now().After(deadline) {
			t.Fatal("scheduled heal never took effect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultConfigTimedPartitionWindow: a FaultConfig carrying
// PartitionAfter/PartitionFor/PartitionLeft arms its own partition-and-heal
// window at construction — the plumbing that lets a preset (hostile-partition)
// ship a whole timed scenario, mirroring the simulator's sim.Partitioned
// layer. Cross-side frames are dropped inside the window and pass after the
// heal.
func TestFaultConfigTimedPartitionWindow(t *testing.T) {
	rec := newRecordingTransport(1, 3)
	ft := NewFaultTransport(rec, FaultConfig{
		PartitionAfter: 10 * time.Millisecond,
		PartitionFor:   80 * time.Millisecond,
		PartitionLeft:  []model.ProcID{1, 2},
	})
	deadline := time.Now().Add(2 * time.Second)
	for !ft.Partitioned() {
		if time.Now().After(deadline) {
			t.Fatal("configured partition window never armed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	before := len(rec.sent())
	if err := ft.Send(Frame{From: 1, To: 3, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.sent()); got != before {
		t.Fatalf("cross-partition frame forwarded during the window (%d -> %d sends)", before, got)
	}
	if err := ft.Send(Frame{From: 1, To: 2, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.sent()); got != before+1 {
		t.Fatalf("same-side frame did not pass during the window (%d -> %d sends)", before, got)
	}
	for ft.Partitioned() {
		if time.Now().After(deadline) {
			t.Fatal("configured partition window never healed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := ft.Send(Frame{From: 1, To: 3, ID: 3}); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.sent()); got != before+2 {
		t.Fatalf("cross-side frame did not pass after the heal (%d -> %d sends)", before, got)
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPresetVocabulary: the live preset names mirror the simulator's
// vocabulary, and unknown names are rejected.
func TestFaultPresetVocabulary(t *testing.T) {
	for _, name := range []string{"lossy", "lossy-burst", "hostile", "hostile-partition", "resets"} {
		cfg, ok := FaultPreset(name, 42)
		if !ok {
			t.Fatalf("preset %q missing from the live fault vocabulary %v", name, FaultPresetNames())
		}
		if cfg.Seed != 42 {
			t.Fatalf("preset %q ignored the seed", name)
		}
	}
	if _, ok := FaultPreset("no-such-preset", 1); ok {
		t.Fatal("unknown preset resolved")
	}
}

// TestFaultHeartbeatsDoNotMoveProtocolFates pins the other half of the
// determinism contract: k counts protocol frames only. Two injectors with one
// seed see the same 400 protocol frames on a link, one of them with
// heartbeats interleaved (as wall-clock timing would put them), and must
// give those protocol frames identical fates: the same frames dropped and the
// same ones duplicated. A duplicate goes out a millisecond late, so the
// frames that went out are compared as sorted IDs once both have flushed.
// The heartbeats are still faulted.
func TestFaultHeartbeatsDoNotMoveProtocolFates(t *testing.T) {
	cfg := FaultConfig{Seed: 11, Drop: 0.2, Burst: 3, Duplicate: 0.1, ResetEvery: 25}
	plainIn, beatIn := newRecordingTransport(1, 2), newRecordingTransport(1, 2)
	plain, beaten := NewFaultTransport(plainIn, cfg), NewFaultTransport(beatIn, cfg)
	beats := 0
	for i := 0; i < 400; i++ {
		f := Frame{From: 1, To: 2, ID: int64(i + 1), Payload: testPayload{K: i}}
		_ = plain.Send(f)
		for j := 0; j < i%4; j++ {
			_ = beaten.Send(Frame{From: 1, To: 2, Payload: Heartbeat{}})
			beats++
		}
		_ = beaten.Send(f)
	}
	plain.pending.Wait() // delayed duplicates
	beaten.pending.Wait()
	protocol := func(fs []Frame) []int64 {
		var ids []int64
		for _, f := range fs {
			if _, beat := f.Payload.(Heartbeat); !beat {
				ids = append(ids, f.ID)
			}
		}
		slices.Sort(ids)
		return ids
	}
	want, got := protocol(plainIn.sent()), protocol(beatIn.sent())
	if len(want) == 400 {
		t.Fatal("no protocol frame was dropped: the schedule exercised nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("with heartbeats interleaved %d protocol frames went out, without %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted protocol frame %d out: ID %d with heartbeats interleaved, %d without", i, got[i], want[i])
		}
	}
	if out := len(beatIn.sent()) - len(got); out >= beats {
		t.Errorf("%d of %d heartbeats went out: heartbeats must stay subject to drops", out, beats)
	}
}
