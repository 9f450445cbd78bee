package runtime

import (
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

// FaultTransport is the live plane's fault injector: a Transport middleware
// that wraps any inner Transport (ChanTransport, TCPTransport) and disrupts
// OUTBOUND protocol frames with seeded drops, added delays, duplicates,
// reorders, connection-reset bursts, and dynamic two-sided partitions — the
// service-plane mirror of internal/sim/adversary. The same automaton stack
// that survives the simulator's hostile environments must survive them over
// real sockets; this is the middleware that lets tests and the chaos harness
// (internal/node's chaos soak) say so.
//
// Determinism contract: every per-frame fault decision — drop, burst length,
// duplicate, reorder, added delay — is a pure function of (Seed, directed
// link, k) where k counts the protocol frames sent on that link through this
// injector. Two injectors built from the same FaultConfig therefore produce
// the IDENTICAL fate schedule for the identical per-link frame sequence (the
// unit tests pin this), so a chaos scenario is reproducible by seed alone:
// what varies between live runs is wall-clock interleaving, never which
// frames the injector chose to disrupt. Heartbeats, whose number on a link
// depends on wall-clock timing, are faulted from a stream of their own per
// link (own index, own hash draws, own bursts and held frame), so they never
// move a protocol frame's fate. Dynamic control-surface calls
// (Partition, Heal, SetEnabled) are scripted by the harness at wall instants
// and sit OUTSIDE the seeded schedule by design.
//
// Scope: faults apply on the send side, to frames between peers; Send
// rejects a frame to self, which a Proc delivers from its own loop. Heartbeat
// frames are subject to drops, partitions, and resets like any other frame.
// Since every received frame counts as liveness for the heartbeat Ω, a
// partition must sever every frame across it, protocol frames included, to
// cut a replica off — and this one does, which is exactly what drives
// internal/node's degraded read-only mode.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu        sync.Mutex
	enabled   bool
	links     map[linkID]*linkState
	left      map[model.ProcID]bool // partition: non-nil while partitioned
	partition bool
	injected  int64 // frames dropped by injected faults (drops, bursts, resets, partitions)
	dupes     int64
	delayed   int64
	pending   sync.WaitGroup // delayed deliveries in flight
	closed    chan struct{}
	once      sync.Once
}

// FaultConfig parameterizes an injector. The zero value injects nothing.
type FaultConfig struct {
	// Seed drives every per-frame decision (see the determinism contract).
	Seed int64
	// Drop is the mean per-frame drop probability across links in [0, 1).
	// Like adversary.Lossy, each directed link gets a fixed rate in
	// [0, 2*Drop] derived from (Seed, link), so losses are asymmetric.
	Drop float64
	// Burst, when >= 2, makes each drop open a burst taking out up to Burst
	// consecutive frames on that link (length drawn from the seeded stream).
	Burst int
	// DelayMin and DelayMax bound an added per-frame delivery delay. Zero
	// both means no added delay.
	DelayMin, DelayMax time.Duration
	// Duplicate is the per-frame probability of sending a second copy —
	// at-most-once transports deliver it twice; retransmission dedup must
	// absorb it.
	Duplicate float64
	// Reorder is the per-frame probability that a frame is held back and
	// transmitted AFTER the next frame on its link (pairwise swap), on top
	// of any delay jitter.
	Reorder float64
	// ResetEvery, when > 0, injects a connection reset roughly every
	// ResetEvery frames per link: the frame and the next ResetBurst frames
	// on the link are dropped in a burst, the way a broken TCP connection
	// takes out everything in flight. Defaults ResetBurst to 3.
	ResetEvery int
	ResetBurst int
	// PartitionAfter, PartitionFor, and PartitionLeft script a single timed
	// partition-and-heal window into the injector itself: PartitionAfter
	// after construction the processes in PartitionLeft are split from the
	// rest (Partition), and PartitionFor later the split heals (Heal) — the
	// live mirror of the simulator's timed sim.Partitioned layer, so a
	// preset can carry the whole scenario. Both durations and a non-empty
	// left side are required for the window to arm. Like every injector, the
	// split is enforced on the SEND side only: full isolation needs every
	// node running the same preset.
	PartitionAfter time.Duration
	PartitionFor   time.Duration
	PartitionLeft  []model.ProcID
}

type linkID struct{ from, to model.ProcID }

// linkState is the per-directed-link schedule cursor of protocol frames; its
// beats field is the link's heartbeat stream.
type linkState struct {
	k         int64 // frames of this stream sent on the link through the injector
	burstLeft int   // remaining frames of an open drop/reset burst
	held      *Frame
	heldDelay time.Duration
	beats     *linkState
}

var _ Transport = (*FaultTransport)(nil)

// NewFaultTransport wraps inner with a fault injector. The injector starts
// ENABLED; SetEnabled(false) turns it into a transparent pass-through
// without unwrapping.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	if cfg.ResetEvery > 0 && cfg.ResetBurst <= 0 {
		cfg.ResetBurst = 3
	}
	t := &FaultTransport{
		inner:   inner,
		cfg:     cfg,
		enabled: true,
		links:   make(map[linkID]*linkState),
		closed:  make(chan struct{}),
	}
	if cfg.PartitionFor > 0 && len(cfg.PartitionLeft) > 0 {
		left := append([]model.ProcID(nil), cfg.PartitionLeft...)
		t.Schedule(cfg.PartitionAfter, func(t *FaultTransport) { t.Partition(left...) })
		t.Schedule(cfg.PartitionAfter+cfg.PartitionFor, func(t *FaultTransport) { t.Heal() })
	}
	return t
}

// Self implements Transport.
func (t *FaultTransport) Self() model.ProcID { return t.inner.Self() }

// N implements Transport.
func (t *FaultTransport) N() int { return t.inner.N() }

// Recv implements Transport.
func (t *FaultTransport) Recv() <-chan Frame { return t.inner.Recv() }

// Dropped implements Transport: the inner transport's own drops plus the
// frames this injector disrupted away.
func (t *FaultTransport) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner.Dropped() + t.injected
}

// Injected returns how many frames the injector itself dropped (drops,
// bursts, resets, partitions) — the chaos harness's accounting, separate
// from the inner transport's organic losses.
func (t *FaultTransport) Injected() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// Duplicated returns how many extra frame copies the injector transmitted.
func (t *FaultTransport) Duplicated() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dupes
}

// Close implements Transport: waits for delayed deliveries to settle, then
// closes the inner transport.
func (t *FaultTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	t.pending.Wait()
	return t.inner.Close()
}

// Inner returns the wrapped transport (tests and diagnostics).
func (t *FaultTransport) Inner() Transport { return t.inner }

// SetEnabled turns injection on or off at a wall instant. Off, every frame
// passes straight through (partitions included — a disabled injector is a
// healed network).
func (t *FaultTransport) SetEnabled(on bool) {
	t.mu.Lock()
	t.enabled = on
	t.mu.Unlock()
}

// Partition installs a two-sided partition at a wall instant: frames between
// a process in left and one outside it are dropped (both directions — the
// caller lists one side, the complement is the other). It replaces any
// partition already in force. Self-frames and same-side frames pass.
func (t *FaultTransport) Partition(left ...model.ProcID) {
	side := make(map[model.ProcID]bool, len(left))
	for _, p := range left {
		side[p] = true
	}
	t.mu.Lock()
	t.left, t.partition = side, true
	t.mu.Unlock()
}

// Heal removes the partition at a wall instant. Seeded per-frame faults
// (drops, delays, duplicates, reorders, resets) keep running; SetEnabled
// turns those off too.
func (t *FaultTransport) Heal() {
	t.mu.Lock()
	t.left, t.partition = nil, false
	t.mu.Unlock()
}

// Partitioned reports whether a partition is currently in force.
func (t *FaultTransport) Partitioned() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.partition
}

// Schedule runs step against the injector after the given wall delay — the
// scripting primitive chaos scenarios are built from ("partition at t=2s,
// heal at t=4s"). The callback is skipped if the injector closes first.
func (t *FaultTransport) Schedule(after time.Duration, step func(*FaultTransport)) {
	t.pending.Add(1)
	timer := time.AfterFunc(after, func() {
		defer t.pending.Done()
		select {
		case <-t.closed:
		default:
			step(t)
		}
	})
	go func() {
		<-t.closed
		if timer.Stop() {
			t.pending.Done()
		}
	}()
}

// hash64 is a pure function of its inputs, so fault schedules never depend
// on map order or call interleaving across links.
func hash64(seed int64, a, b, c int64) uint64 {
	return model.Mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(a)*0xbf58476d1ce4e5b9 +
		uint64(b)*0x94d049bb133111eb + uint64(c)*0xd6e8feb86659fd93)
}

// unit maps a hash draw to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// linkRate mirrors adversary.Lossy: directed link (from, to) drops with a
// fixed rate in [0, 2*Drop], clamped below 1.
func (t *FaultTransport) linkRate(from, to model.ProcID) float64 {
	r := 2 * t.cfg.Drop * unit(hash64(t.cfg.Seed, int64(from), int64(to), -1))
	if r >= 1 {
		r = 0.999
	}
	return r
}

// fate is the seeded decision for the k-th frame on a link.
type fate struct {
	drop    bool
	dup     bool
	reorder bool
	delay   time.Duration
}

// decide computes the k-th frame's fate on a link — the pure function the
// determinism contract promises. Draw streams are decorrelated by salting
// the hash with a distinct constant per decision kind.
func (t *FaultTransport) decide(from, to model.ProcID, k int64) fate {
	var f fate
	cfg := &t.cfg
	if cfg.Drop > 0 && unit(hash64(cfg.Seed, int64(from), int64(to), k*8+0)) < t.linkRate(from, to) {
		f.drop = true
	}
	if cfg.ResetEvery > 0 &&
		unit(hash64(cfg.Seed, int64(from), int64(to), k*8+1)) < 1/float64(cfg.ResetEvery) {
		f.drop = true // reset: the caller opens a burst of ResetBurst more
	}
	if cfg.Duplicate > 0 && unit(hash64(cfg.Seed, int64(from), int64(to), k*8+2)) < cfg.Duplicate {
		f.dup = true
	}
	if cfg.Reorder > 0 && unit(hash64(cfg.Seed, int64(from), int64(to), k*8+3)) < cfg.Reorder {
		f.reorder = true
	}
	if cfg.DelayMax > cfg.DelayMin || cfg.DelayMin > 0 {
		span := int64(cfg.DelayMax - cfg.DelayMin)
		f.delay = cfg.DelayMin
		if span > 0 {
			f.delay += time.Duration(int64(unit(hash64(cfg.Seed, int64(from), int64(to), k*8+4)) * float64(span+1)))
		}
	}
	return f
}

// burstLen draws the length of a drop burst opened at frame k (1 = just this
// frame), mirroring Lossy's [1, Burst] draw.
func (t *FaultTransport) burstLen(from, to model.ProcID, k int64, max int) int {
	if max < 2 {
		return 1
	}
	return 1 + int(unit(hash64(t.cfg.Seed, int64(from), int64(to), k*8+5))*float64(max))
}

// Send implements Transport: consult the seeded schedule and the partition,
// then forward, duplicate, hold back, delay, or drop the frame.
func (t *FaultTransport) Send(f Frame) error {
	if f.From == f.To {
		return errNotPeer(f.From, f.To)
	}
	t.mu.Lock()
	if !t.enabled {
		t.mu.Unlock()
		return t.inner.Send(f)
	}
	if t.partition && t.left[f.From] != t.left[f.To] {
		t.injected++
		t.mu.Unlock()
		return nil
	}
	id := linkID{f.From, f.To}
	ls := t.links[id]
	if ls == nil {
		ls = &linkState{beats: &linkState{}}
		t.links[id] = ls
	}
	k := ls.k
	if _, beat := f.Payload.(Heartbeat); beat {
		// The heartbeat stream draws at ^k < 0, disjoint from the protocol
		// frames' k ≥ 0.
		ls = ls.beats
		k = ^ls.k
	}
	ls.k++
	if ls.burstLeft > 0 {
		ls.burstLeft--
		t.injected++
		t.mu.Unlock()
		return nil
	}
	fate := t.decide(f.From, f.To, k)
	if fate.drop {
		burst := t.cfg.Burst
		if t.cfg.ResetEvery > 0 && burst < t.cfg.ResetBurst {
			burst = t.cfg.ResetBurst
		}
		if n := t.burstLen(f.From, f.To, k, burst); n > 1 {
			ls.burstLeft = n - 1
		}
		t.injected++
		t.mu.Unlock()
		return nil
	}
	// Reorder: hold this frame; it goes out after the NEXT surviving frame
	// on the link (or its own deferred flush if the link goes quiet).
	if fate.reorder && ls.held == nil {
		held := f
		ls.held = &held
		ls.heldDelay = fate.delay
		t.pending.Add(1)
		time.AfterFunc(maxDuration(fate.delay, time.Millisecond)*4, func() {
			defer t.pending.Done()
			t.flushHeld(ls, &held)
		})
		t.mu.Unlock()
		return nil
	}
	var release *Frame
	var releaseDelay time.Duration
	if ls.held != nil {
		release, releaseDelay = ls.held, ls.heldDelay
		ls.held = nil
	}
	if fate.dup {
		t.dupes++
	}
	t.mu.Unlock()

	err := t.forward(f, fate.delay)
	if fate.dup {
		_ = t.forward(f, fate.delay+time.Millisecond)
	}
	if release != nil {
		_ = t.forward(*release, releaseDelay)
	}
	return err
}

// flushHeld releases a reordered frame whose link went quiet before the next
// frame could overtake it — held frames are delayed, never lost (a reorder
// is not a drop).
func (t *FaultTransport) flushHeld(ls *linkState, held *Frame) {
	t.mu.Lock()
	if ls.held != held {
		t.mu.Unlock()
		return
	}
	ls.held = nil
	t.mu.Unlock()
	_ = t.inner.Send(*held)
}

// forward transmits a frame after an optional injected delay.
func (t *FaultTransport) forward(f Frame, delay time.Duration) error {
	if delay <= 0 {
		return t.inner.Send(f)
	}
	t.mu.Lock()
	t.delayed++
	t.mu.Unlock()
	t.pending.Add(1)
	time.AfterFunc(delay, func() {
		defer t.pending.Done()
		select {
		case <-t.closed:
		default:
			_ = t.inner.Send(f)
		}
	})
	return nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// faultPresets is the live injector's preset vocabulary. The names mirror
// internal/sim/adversary's registry so "lossy" means the same kind of
// environment in the simulator and over real sockets; the magnitudes are
// rescaled from ticks to wall time. The table is fixed: it is only read.
var faultPresets = map[string]func(seed int64) FaultConfig{
	// lossy: ~15% mean per-link loss, independent drops — pair with the
	// retransmission layer (internal/node always does).
	"lossy": func(seed int64) FaultConfig {
		return FaultConfig{Seed: seed, Drop: 0.15}
	},
	// lossy-burst: ~15% mean loss arriving in bursts of up to 4.
	"lossy-burst": func(seed int64) FaultConfig {
		return FaultConfig{Seed: seed, Drop: 0.15, Burst: 4}
	},
	// resets: a connection reset roughly every 40 frames per link, each
	// taking out a 3-frame burst — the mid-stream connection loss regime
	// the TCP transport's redial path is hardened against.
	"resets": func(seed int64) FaultConfig {
		return FaultConfig{Seed: seed, ResetEvery: 40, ResetBurst: 3}
	},
	// hostile: the live mirror of the simulator's hostile stack — ~10%
	// loss, added delay jitter, occasional duplicates and reorders, and
	// reset bursts, all at once.
	"hostile": func(seed int64) FaultConfig {
		return FaultConfig{
			Seed: seed, Drop: 0.10, Burst: 3,
			DelayMin: time.Millisecond, DelayMax: 25 * time.Millisecond,
			Duplicate: 0.05, Reorder: 0.10,
			ResetEvery: 80, ResetBurst: 3,
		}
	},
	// hostile-partition: the hostile stack plus a timed partition-and-heal
	// window — {p1, p2} split from the rest 2s in, healed 1s later — the
	// live mirror of the simulator's composite of the same name. Send-side
	// enforcement means every node must run the preset for full isolation,
	// exactly as every replica shares one simulated network.
	"hostile-partition": func(seed int64) FaultConfig {
		return FaultConfig{
			Seed: seed, Drop: 0.10, Burst: 3,
			DelayMin: time.Millisecond, DelayMax: 25 * time.Millisecond,
			Duplicate: 0.05, Reorder: 0.10,
			ResetEvery: 80, ResetBurst: 3,
			PartitionAfter: 2 * time.Second,
			PartitionFor:   time.Second,
			PartitionLeft:  []model.ProcID{1, 2},
		}
	},
}

// FaultPreset resolves a named fault profile at a seed. ok is false for
// unknown names; FaultPresetNames lists the vocabulary.
func FaultPreset(name string, seed int64) (FaultConfig, bool) {
	mk, ok := faultPresets[name]
	if !ok {
		return FaultConfig{}, false
	}
	return mk(seed), true
}

// FaultPresetNames lists the live fault presets, sorted.
func FaultPresetNames() []string {
	names := make([]string, 0, len(faultPresets))
	for name := range faultPresets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
