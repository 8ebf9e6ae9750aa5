package dcsctrl_test

import (
	"bytes"
	"fmt"
	"testing"

	"dcsctrl"
	"dcsctrl/internal/bench"
	"dcsctrl/internal/core"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
)

// withFusion runs fn with the kernel's continuation fusion forced on
// or off, restoring the previous default afterwards. Fusion is a pure
// fast path: it may only fire when inlining a continuation is
// schedule-identical to enqueueing it, so everything observable about
// a run — figure renders, simulated clocks, fault statistics — must be
// bit-identical in both modes. These tests pin that invariant.
func withFusion(t *testing.T, on bool, fn func()) {
	t.Helper()
	prev := sim.DefaultFusion()
	sim.SetDefaultFusion(on)
	defer sim.SetDefaultFusion(prev)
	fn()
}

// TestFusionEquivalenceFigures renders the deterministic microbenchmark
// figures under both kernel modes and requires byte-identical output.
func TestFusionEquivalenceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set under both kernel modes")
	}
	figures := []struct {
		name string
		run  func() string
	}{
		{"fig3", func() string { var b bytes.Buffer; bench.RunFigure3().Render(&b); return b.String() }},
		{"fig8", func() string { var b bytes.Buffer; bench.RunFigure8().Render(&b); return b.String() }},
		{"fig11a", func() string { var b bytes.Buffer; bench.Figure11a().Render(&b); return b.String() }},
		{"fig11b", func() string { var b bytes.Buffer; bench.Figure11b().Render(&b); return b.String() }},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			var fused, unfused string
			withFusion(t, true, func() { fused = fig.run() })
			withFusion(t, false, func() { unfused = fig.run() })
			if fused != unfused {
				t.Errorf("fused and unfused renders differ:\n--- fused ---\n%s\n--- unfused ---\n%s", fused, unfused)
			}
		})
	}
}

// TestFusionEquivalenceSwift fingerprints a fault-injected Swift run
// (request counts, CPU accounting, latencies, final clock, per-site
// fault fire counts) under both kernel modes.
func TestFusionEquivalenceSwift(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run workload sweep")
	}
	for _, cfg := range []dcsctrl.Config{dcsctrl.SWP2P, dcsctrl.DCSCtrl} {
		t.Run(cfg.String(), func(t *testing.T) {
			var fused, unfused string
			withFusion(t, true, func() { fused = swiftFingerprint(t, cfg, 11, 7) })
			withFusion(t, false, func() { unfused = swiftFingerprint(t, cfg, 11, 7) })
			if fused != unfused {
				t.Fatalf("fused and unfused fingerprints differ:\n fused=%s\n unfused=%s", fused, unfused)
			}
		})
	}
}

// TestFusionEquivalenceRecovery drives the engine-failure fallback path
// under both kernel modes: recovery statistics, the final simulated
// clock, and the injector's fire counts must match exactly.
func TestFusionEquivalenceRecovery(t *testing.T) {
	run := func() string {
		tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithFaults(1, fault.EngineFail()))
		defer tb.Close()
		runTransferPair(t, tb, 256<<10)
		return fmt.Sprintf("%+v now=%d faults=%s",
			tb.ServerRecoveryStats(), tb.Env.Now(), tb.Faults().StatsString())
	}
	var fused, unfused string
	withFusion(t, true, func() { fused = run() })
	withFusion(t, false, func() { unfused = run() })
	if fused != unfused {
		t.Fatalf("recovery diverged:\n fused=%s\n unfused=%s", fused, unfused)
	}
}

// TestFusionActuallyFuses guards against the toggle becoming a dead
// knob: with fusion on, a DCS-ctrl protocol cell must inline
// continuations and dispatch strictly fewer events than the unfused
// run, while completing the same I/Os.
func TestFusionActuallyFuses(t *testing.T) {
	var fused, unfused bench.ProtocolStats
	withFusion(t, true, func() { fused = bench.MeasureProtocol("dcs", core.DCSCtrl, 8, 64<<10) })
	withFusion(t, false, func() { unfused = bench.MeasureProtocol("dcs", core.DCSCtrl, 8, 64<<10) })
	if fused.Fused == 0 {
		t.Error("fusion enabled but no continuation was ever inlined")
	}
	if unfused.Fused != 0 {
		t.Errorf("fusion disabled but %d continuations were inlined", unfused.Fused)
	}
	if fused.IOs != unfused.IOs {
		t.Errorf("I/O count diverged: fused %d, unfused %d", fused.IOs, unfused.IOs)
	}
	if fused.Events >= unfused.Events {
		t.Errorf("fusion saved no events: fused %d, unfused %d", fused.Events, unfused.Events)
	}
}
