package loadgen

import "testing"

// TestRunSimUniformResolvesAll pins the harness end to end on the clean
// network: every offered op becomes visible everywhere, latencies are sane
// (visible <= stable per construction of max-over-procs vs last-apply), and
// identical configs reproduce identical histograms.
func TestRunSimUniformResolvesAll(t *testing.T) {
	cfg := Config{Ops: 200, Rate: 0.5, Sessions: 8, Seed: 3}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unresolved != 0 || res.Resolved != cfg.Ops {
		t.Fatalf("resolved %d/%d (unresolved %d) on the clean network", res.Resolved, res.Ops, res.Unresolved)
	}
	if res.Visible.Count() != int64(cfg.Ops) || res.Stable.Count() != int64(cfg.Ops) {
		t.Fatalf("histogram counts %d/%d, want %d", res.Visible.Count(), res.Stable.Count(), cfg.Ops)
	}
	if res.Visible.Min() <= 0 {
		t.Errorf("visibility latency min %d — submissions cannot be visible instantly", res.Visible.Min())
	}
	if res.Stable.Quantile(0.99) < res.Visible.Quantile(0.99) {
		t.Errorf("stable p99 %d < visible p99 %d — stability cannot precede visibility",
			res.Stable.Quantile(0.99), res.Visible.Quantile(0.99))
	}
	if res.MessagesSent == 0 {
		t.Error("no protocol messages counted")
	}

	again, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Visible.String(), res.Visible.String(); got != want {
		t.Errorf("same config, different visibility histogram:\n  %s\n  %s", got, want)
	}
}

// TestRunSimBatchingShrinksMessages pins the tentpole claim at harness level:
// under the same open-loop arrival schedule, batching (k=8) sends measurably
// fewer protocol messages than k=1 while still resolving every op.
func TestRunSimBatchingShrinksMessages(t *testing.T) {
	base := Config{Ops: 300, Rate: 2, Sessions: 16, Seed: 5}
	unbatched, err := RunSim(base)
	if err != nil {
		t.Fatal(err)
	}
	batched := base
	batched.Batch.MaxBatch = 8
	batched.Batch.MaxLinger = 3
	b, err := RunSim(batched)
	if err != nil {
		t.Fatal(err)
	}
	if b.Unresolved != 0 {
		t.Fatalf("batched run left %d ops unresolved", b.Unresolved)
	}
	if b.MessagesSent >= unbatched.MessagesSent {
		t.Errorf("batched run sent %d messages, unbatched %d — batching amortized nothing",
			b.MessagesSent, unbatched.MessagesSent)
	}
	t.Logf("messages: k=1 %d, k=8 %d (%.1f%%)", unbatched.MessagesSent, b.MessagesSent,
		100*float64(b.MessagesSent)/float64(unbatched.MessagesSent))
}

// TestRunSimLossyPresetStillResolves runs the lossy preset: retransmission
// must eventually make every op visible, at strictly higher tail latency than
// the op's own minimum possible.
func TestRunSimLossyPresetStillResolves(t *testing.T) {
	res, err := RunSim(Config{Ops: 120, Rate: 0.3, Sessions: 8, Seed: 11, Preset: "lossy"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unresolved != 0 {
		t.Fatalf("lossy preset left %d/%d unresolved — retransmission failed", res.Unresolved, res.Ops)
	}
	if res.Visible.Quantile(0.999) <= res.Visible.Min() {
		t.Errorf("p999 %d <= min %d under loss — no tail at all is implausible",
			res.Visible.Quantile(0.999), res.Visible.Min())
	}
}

func TestRunSimUnknownPreset(t *testing.T) {
	if _, err := RunSim(Config{Ops: 1, Preset: "no-such-preset"}); err == nil {
		t.Fatal("unknown preset must error, not silently run clean")
	}
}
