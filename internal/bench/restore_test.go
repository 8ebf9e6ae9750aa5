package bench

import (
	"strings"
	"testing"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// TestRestoreRoundTrip restores a warm checkpoint into a fresh cluster
// and re-snapshots it: the bytes must round-trip exactly.
func TestRestoreRoundTrip(t *testing.T) {
	cfg := DefaultWarmForkConfig()
	cfg.WarmDuration = 3 * sim.Millisecond
	cfg.Conns = 4
	_, cl, sess, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunPhaseSeed(0, cfg.WarmDuration, warmSeed); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, cl2, _, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Restore(ckpt); err != nil {
		t.Fatalf("restore: %v", err)
	}
	ckpt2, err := cl2.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if len(ckpt) != len(ckpt2) {
		t.Fatalf("sizes differ: %d vs %d", len(ckpt), len(ckpt2))
	}
	for i := range ckpt {
		if ckpt[i] != ckpt2[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("differ at byte %d; context orig=%q restored=%q", i, ckpt[lo:i+20], ckpt2[lo:i+20])
		}
	}
}

// TestRestoreRejectsKnobMismatch restores a checkpoint into a cluster
// built with continuation fusion off: the header's knob flags differ,
// so Restore must refuse before touching the cluster. The checkpoint
// itself must carry FlagHandlerProcs, which every snapshot sets.
func TestRestoreRejectsKnobMismatch(t *testing.T) {
	cfg := DefaultWarmForkConfig()
	cfg.Conns = 4
	env, cl, _, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ckpt, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, h, err := snap.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&snap.FlagHandlerProcs == 0 {
		t.Fatalf("header flags %#x lack FlagHandlerProcs", h.Flags)
	}

	prev := sim.DefaultFusion()
	sim.SetDefaultFusion(false)
	env2, cl2, _, err := cfg.buildCell()
	sim.SetDefaultFusion(prev)
	if err != nil {
		t.Fatal(err)
	}
	defer env2.Close()
	now := env2.Now()
	err = cl2.Restore(ckpt)
	if err == nil || !strings.Contains(err.Error(), "kernel knobs differ") {
		t.Fatalf("restore into fusion-off cluster: err = %v, want a knob-flag mismatch", err)
	}
	if env2.Now() != now {
		t.Fatalf("rejected restore moved the clock: %d -> %d", now, env2.Now())
	}
}

// TestRestoreRejectsSetupMismatch restores a checkpoint taken with
// four connection pairs into a cell built with three. The
// configuration fingerprint does not cover the connection count, so
// the header passes and the load-side structure checks must catch the
// difference, naming it, before the clock is forced.
func TestRestoreRejectsSetupMismatch(t *testing.T) {
	cfg := DefaultWarmForkConfig()
	cfg.Conns = 4
	env, cl, _, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ckpt, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfg.Conns = 3
	env2, cl2, _, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	defer env2.Close()
	if cl2.ConfigFingerprint() != cl.ConfigFingerprint() {
		t.Fatal("connection count changed the configuration fingerprint; the test no longer reaches the structure checks")
	}
	now := env2.Now()
	err = cl2.Restore(ckpt)
	if err == nil || !strings.Contains(err.Error(), "connections opened") {
		t.Fatalf("restore into a 3-connection cell: err = %v, want a connection-count mismatch", err)
	}
	if env2.Now() != now {
		t.Fatalf("rejected restore moved the clock: %d -> %d", now, env2.Now())
	}
}
