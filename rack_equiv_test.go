// Parallel-equivalence suite for the sharded rack kernel: the
// conservative parallel DES must produce byte-identical results at
// ANY worker count and ANY domain decomposition — including uneven
// node/domain splits, runs with fault injection live, and runs with
// the kernel fast paths (fusion, flow wire model) switched off. CI
// runs this file under -race across the seed matrix: domains share no
// state and the coordinator owns the fabric, so the race detector
// must stay silent while the fingerprints stay constant.
package dcsctrl_test

import (
	"testing"

	"dcsctrl/internal/bench"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
)

// equivSeeds is the seed matrix: the pinned default plus seeds that
// reshuffle flow sizes (and with faults, injection schedules).
var equivSeeds = []uint64{0, 7, 42, 0xBADCAFE, 20260808}

// TestRackEquivWorkers pins worker-count invariance: at a fixed
// 4-domain decomposition, runs with 1, 2, 4, and 8 workers must all
// reproduce the single-worker fingerprint and makespan exactly, for
// every seed. Workers only change which OS thread executes a domain's
// window — never the schedule.
func TestRackEquivWorkers(t *testing.T) {
	for _, seed := range equivSeeds {
		base := bench.RackConfig{Nodes: 8, Domains: 4, Workers: 1, Bytes: 4 << 10, Seed: seed}
		ref := bench.RunRack(base)
		refFP := ref.Fingerprint()
		for _, workers := range []int{2, 4, 8} {
			cfg := base
			cfg.Workers = workers
			res := bench.RunRack(cfg)
			if fp := res.Fingerprint(); fp != refFP {
				t.Fatalf("seed %d workers %d: fingerprint %s != 1-worker %s", seed, workers, fp, refFP)
			}
			if res.Makespan != ref.Makespan {
				t.Fatalf("seed %d workers %d: makespan %v != %v", seed, workers, res.Makespan, ref.Makespan)
			}
			if res.Events != ref.Events {
				t.Fatalf("seed %d workers %d: events %d != %d", seed, workers, res.Events, ref.Events)
			}
		}
	}
}

// TestRackEquivDomains pins decomposition invariance: the same
// workload cut into 1, 2, 3 (uneven 12/3 split boundaries on 8
// nodes), 4, and 8 domains must fingerprint identically, and every
// multi-domain run must actually dispatch domains in parallel.
func TestRackEquivDomains(t *testing.T) {
	for _, pattern := range []string{bench.RackAllToAll, bench.RackIncast} {
		cfg := bench.RackConfig{Nodes: 8, Pattern: pattern, Bytes: 4 << 10, Rounds: 2, Seed: 42}
		ref := bench.RunRack(cfg)
		refFP := ref.Fingerprint()
		for _, domains := range []int{2, 3, 4, 8} {
			c := cfg
			c.Domains = domains
			res := bench.RunRack(c)
			if fp := res.Fingerprint(); fp != refFP {
				t.Fatalf("%s domains %d: fingerprint %s != serial %s", pattern, domains, fp, refFP)
			}
			if res.ShardStats.ParWindows == 0 {
				t.Fatalf("%s domains %d: no parallel windows (knob dead)", pattern, domains)
			}
		}
	}
}

// TestRackEquivFaults pins equivalence with fault injection live:
// per-node injectors are seeded by node index, so the corruption
// schedule — and therefore the retransmit traffic and final timings —
// must not depend on the decomposition. The crc-heavy profile
// guarantees receiver-visible corruption at this scale; fault.Light
// covers the mixed-site profile the recovery matrix uses.
func TestRackEquivFaults(t *testing.T) {
	crcHeavy := fault.Profile{
		Name:  "crc-heavy",
		Rules: map[fault.Site]fault.Rule{fault.NICCorruptFrame: {Prob: 0.05}},
	}
	for _, profile := range []fault.Profile{crcHeavy, fault.Light()} {
		for _, seed := range []uint64{3, 9} {
			cfg := bench.RackConfig{
				Nodes: 8, Bytes: 4 << 10, Seed: seed,
				FaultProfile: profile, FaultSeed: seed ^ 0xF00D,
			}
			ref := bench.RunRack(cfg)
			refFP := ref.Fingerprint()
			if profile.Name == "crc-heavy" && ref.RxErrors == 0 {
				t.Fatalf("%s seed %d: no corrupt frames observed (injection dead)", profile.Name, seed)
			}
			for _, domains := range []int{2, 4} {
				c := cfg
				c.Domains = domains
				res := bench.RunRack(c)
				if fp := res.Fingerprint(); fp != refFP {
					t.Fatalf("%s seed %d domains %d: fingerprint %s != serial %s",
						profile.Name, seed, domains, fp, refFP)
				}
				if res.RxErrors != ref.RxErrors {
					t.Fatalf("%s seed %d domains %d: rx errors %d != serial %d",
						profile.Name, seed, domains, res.RxErrors, ref.RxErrors)
				}
			}
		}
	}
}

// TestRackEquivKnobs crosses the two schedule-preserving kernel fast
// paths — continuation fusion and the flow-level wire model — over the
// seed matrix on a 2-domain rack: every combination must reproduce the
// pinned goldenRack fingerprint and makespan. Event counts are not
// compared: fusion and flow segments exist to elide events.
func TestRackEquivKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("fusion × wire-fidelity × seed matrix")
	}
	knobs := []struct {
		fusion bool
		wire   sim.WireFidelity
	}{
		{true, sim.WireFrame},
		{false, sim.WireFlow},
		{false, sim.WireFrame},
	}
	for _, seed := range equivSeeds {
		want := goldenRack[rackGoldenKey{seed, 2}]
		for _, k := range knobs {
			withFusion(t, k.fusion, func() {
				prev := sim.DefaultWireFidelity()
				sim.SetDefaultWireFidelity(k.wire)
				defer sim.SetDefaultWireFidelity(prev)
				res := bench.RunRack(goldenRackConfig(seed, 2))
				if fp := res.Fingerprint(); fp != want.fingerprint {
					t.Errorf("seed %d fusion=%v wire=%v: fingerprint %s, want %s",
						seed, k.fusion, k.wire, fp, want.fingerprint)
				}
				if res.Makespan != want.makespan {
					t.Errorf("seed %d fusion=%v wire=%v: makespan %d, want %d",
						seed, k.fusion, k.wire, res.Makespan, want.makespan)
				}
			})
		}
	}
}
