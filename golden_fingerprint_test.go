// Golden-fingerprint pins: every observable of the runs below is
// pinned to a value recorded from the simulator, so any change to the
// event schedule — which events fire, at which instants, in which
// order — fails here byte for byte. The pins cover the model paths
// that run as handler procs (NIC rx demux and completion, host-net rx
// delivery, pooled async DMA, the host NVMe retry, the completion
// collector) across shard decompositions, fault injection and the
// figure renders. CI runs this file under -race.
//
// A deliberate schedule change must re-record these values and say
// why in the change description.
package dcsctrl_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dcsctrl"
	"dcsctrl/internal/bench"
	"dcsctrl/internal/fault"
)

// rackGolden is the pinned outcome of one 8-node all-to-all rack run.
type rackGolden struct {
	fingerprint string
	makespan    dcsctrl.Time
	events      uint64
}

// rackGoldenKey selects a rack run: workload seed × shard domains.
type rackGoldenKey struct {
	seed    uint64
	domains int
}

// rackGoldenDomains are the shard decompositions pinned per seed.
var rackGoldenDomains = []int{1, 2, 4}

// goldenRack pins RackAllToAll (Bytes 4 KiB) for every equivSeeds seed
// and every rackGoldenDomains count. Fingerprint and makespan do not
// depend on the decomposition; the event count does (cross-domain
// frames are delivered by the coordinator).
var goldenRack = map[rackGoldenKey]rackGolden{
	{0, 1}:         {"6d409c25f458e50af80f4e59aaf03be4", 94326, 6083},
	{0, 2}:         {"6d409c25f458e50af80f4e59aaf03be4", 94326, 6080},
	{0, 4}:         {"6d409c25f458e50af80f4e59aaf03be4", 94326, 6078},
	{7, 1}:         {"282b9d90989f7031969b61e262443006", 97325, 5867},
	{7, 2}:         {"282b9d90989f7031969b61e262443006", 97325, 5867},
	{7, 4}:         {"282b9d90989f7031969b61e262443006", 97325, 5867},
	{42, 1}:        {"a66e29271e381a9670cc818b647a1a36", 95386, 5948},
	{42, 2}:        {"a66e29271e381a9670cc818b647a1a36", 95386, 5948},
	{42, 4}:        {"a66e29271e381a9670cc818b647a1a36", 95386, 5946},
	{0xBADCAFE, 1}: {"2429496e8abf72da7c970b6b849ff815", 91856, 5813},
	{0xBADCAFE, 2}: {"2429496e8abf72da7c970b6b849ff815", 91856, 5812},
	{0xBADCAFE, 4}: {"2429496e8abf72da7c970b6b849ff815", 91856, 5811},
	{20260808, 1}:  {"939bfd799cc8156969e29e5a860f865c", 96428, 5908},
	{20260808, 2}:  {"939bfd799cc8156969e29e5a860f865c", 96428, 5908},
	{20260808, 4}:  {"939bfd799cc8156969e29e5a860f865c", 96428, 5906},
}

// goldenSwift pins swiftFingerprint(cfg, 11, 7) per server config.
var goldenSwift = map[dcsctrl.Config]string{
	dcsctrl.Vanilla: "42e881a4e340a76776cb045bd766d97be1f74a769a4a8545bfc67fb2cbae3357",
	dcsctrl.SWOpt:   "d2d7f8c690eb7701f0f7d9fc9774380e81570596d42151d13c2cf9899f63fb12",
	dcsctrl.SWP2P:   "f8e182e0c46c9b2cfa1925c1d35eaacd34c51f6fe76d680c41a727622a152f17",
	dcsctrl.DCSCtrl: "bad515a8f05c07dde9b4d5e3cf48ad65c611181d9c2cb5b4bac4022243f3274c",
}

// goldenRecovery pins the light/heavy runTransferPair(512 KiB)
// recovery string at fault seed 42, keyed "profile/config".
var goldenRecovery = map[string]string{
	"light/vanilla": `{Injected:34 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:1 NICTxReplays:4 NICBDRefetches:0} now=4587399 faults=nic.crc-corrupt           729 draws      9 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error            9 draws      1 injected
pcie.delay-posted        1092 draws     14 injected
pcie.drop-posted         1099 draws      7 injected
pcie.link-degrade        1006 draws      2 injected
`,
	"light/sw-opt": `{Injected:26 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:1 NICTxReplays:4 NICBDRefetches:0} now=3293161 faults=nic.crc-corrupt           729 draws      9 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error            9 draws      1 injected
pcie.delay-posted         641 draws      8 injected
pcie.drop-posted          646 draws      5 injected
pcie.link-degrade        1006 draws      2 injected
`,
	"light/sw-p2p": `{Injected:26 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:1 NICTxReplays:4 NICBDRefetches:0} now=2960594 faults=nic.crc-corrupt           729 draws      9 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error            9 draws      1 injected
pcie.delay-posted         641 draws      8 injected
pcie.drop-posted          646 draws      5 injected
pcie.link-degrade        1005 draws      2 injected
`,
	"light/dcs-ctrl": `{Injected:20 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:0 NICTxReplays:4 NICBDRefetches:0} now=40005400 faults=hdc.engine-stall            2 draws      0 injected
hdc.poison-cpl              2 draws      0 injected
nic.crc-corrupt           729 draws      9 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error            9 draws      1 injected
pcie.delay-posted         385 draws      5 injected
pcie.drop-posted          387 draws      2 injected
pcie.link-degrade        1016 draws      2 injected
`,
	"heavy/vanilla": `{Injected:123 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:3 NICTxReplays:7 NICBDRefetches:0} now=4598628 faults=nic.crc-corrupt           736 draws     16 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error           11 draws      3 injected
pcie.delay-posted        1043 draws     63 injected
pcie.drop-posted         1065 draws     22 injected
pcie.link-degrade        1018 draws     18 injected
`,
	"heavy/sw-opt": `{Injected:91 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:3 NICTxReplays:7 NICBDRefetches:0} now=3318670 faults=nic.crc-corrupt           736 draws     16 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error           11 draws      3 injected
pcie.delay-posted         643 draws     41 injected
pcie.drop-posted          655 draws     12 injected
pcie.link-degrade        1017 draws     18 injected
`,
	"heavy/sw-p2p": `{Injected:91 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:3 NICTxReplays:7 NICBDRefetches:0} now=2977118 faults=nic.crc-corrupt           736 draws     16 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error           11 draws      3 injected
pcie.delay-posted         641 draws     41 injected
pcie.drop-posted          653 draws     12 injected
pcie.link-degrade        1017 draws     18 injected
`,
	"heavy/dcs-ctrl": `{Injected:67 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:0 NICTxReplays:7 NICBDRefetches:0} now=40005400 faults=hdc.engine-stall            2 draws      0 injected
hdc.poison-cpl              2 draws      0 injected
nic.crc-corrupt           736 draws     16 injected
nic.stuck-bd               48 draws      1 injected
nvme.read-error             8 draws      0 injected
nvme.write-error           11 draws      3 injected
pcie.delay-posted         380 draws     24 injected
pcie.drop-posted          385 draws      5 injected
pcie.link-degrade        1026 draws     18 injected
`,
}

// goldenFigures pins the SHA-256 of each deterministic figure render.
var goldenFigures = map[string]string{
	"fig3":   "e6bc1a35fd40f73d07153a1db16c30fc7e1a34b1c682cc1087783b8d9be1fbaa",
	"fig8":   "e34b20302744e4a7955170c93be7e7e835535d09b364f93ef5d7f53386e8b174",
	"fig11a": "d5d8fc5b8751beb1628250d8d3b3327f998e52d4671a2288dfc889953961f4b7",
	"fig11b": "ca885e37e6ad9f7f75a6cf0585ab15109be17657b827d1b4c63a55041c8216d0",
}

// goldenRackConfig is the rack run behind one goldenRack entry.
func goldenRackConfig(seed uint64, domains int) bench.RackConfig {
	return bench.RackConfig{Nodes: 8, Domains: domains, Bytes: 4 << 10, Seed: seed}
}

// TestGoldenRack pins the 8-node rack across the seed matrix and shard
// decompositions, and checks that the handler-proc paths actually ran.
func TestGoldenRack(t *testing.T) {
	seeds := equivSeeds
	domainCounts := rackGoldenDomains
	if testing.Short() {
		seeds = seeds[:1]
		domainCounts = []int{2}
	}
	for _, seed := range seeds {
		for _, domains := range domainCounts {
			res := bench.RunRack(goldenRackConfig(seed, domains))
			want := goldenRack[rackGoldenKey{seed, domains}]
			if got := res.Fingerprint(); got != want.fingerprint {
				t.Errorf("seed %d domains %d: fingerprint %s, want %s", seed, domains, got, want.fingerprint)
			}
			if res.Makespan != want.makespan {
				t.Errorf("seed %d domains %d: makespan %d, want %d", seed, domains, res.Makespan, want.makespan)
			}
			if res.Events != want.events {
				t.Errorf("seed %d domains %d: events %d, want %d", seed, domains, res.Events, want.events)
			}
			if res.ShardStats.HandlerDispatches == 0 {
				t.Errorf("seed %d domains %d: no handler procs dispatched", seed, domains)
			}
		}
	}
}

// TestGoldenSwift pins the fault-injected Swift fingerprint of every
// server config.
func TestGoldenSwift(t *testing.T) {
	if testing.Short() {
		t.Skip("Swift run per config")
	}
	for _, cfg := range []dcsctrl.Config{dcsctrl.Vanilla, dcsctrl.SWOpt, dcsctrl.SWP2P, dcsctrl.DCSCtrl} {
		t.Run(cfg.String(), func(t *testing.T) {
			if got, want := swiftFingerprint(t, cfg, 11, 7), goldenSwift[cfg]; got != want {
				t.Errorf("fingerprint %s, want %s", got, want)
			}
		})
	}
}

// TestGoldenRecovery pins the recovery counters, final clock and
// per-site fault fire counts of a GET+PUT pair under the light and
// heavy profiles. The three host-controlled configs must re-submit at
// least one NVMe command, so the host retry path stays exercised.
func TestGoldenRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("transfer pair per profile × config")
	}
	for _, profile := range []dcsctrl.FaultProfile{fault.Light(), fault.Heavy()} {
		for _, cfg := range []dcsctrl.Config{dcsctrl.Vanilla, dcsctrl.SWOpt, dcsctrl.SWP2P, dcsctrl.DCSCtrl} {
			name := profile.Name + "/" + cfg.String()
			t.Run(name, func(t *testing.T) {
				tb := dcsctrl.NewTestbed(cfg, dcsctrl.WithFaults(42, profile))
				defer tb.Close()
				runTransferPair(t, tb, 512<<10)
				rs := tb.ServerRecoveryStats()
				got := fmt.Sprintf("%+v now=%d faults=%s", rs, tb.Env.Now(), tb.Faults().StatsString())
				if want := goldenRecovery[name]; got != want {
					t.Errorf("recovery\n got %q\nwant %q", got, want)
				}
				if cfg != dcsctrl.DCSCtrl && rs.HostNVMeRetries == 0 {
					t.Error("no host NVMe retries: the retry path went unexercised")
				}
			})
		}
	}
}

// TestGoldenFigureRenders pins the SHA-256 of the deterministic
// microbenchmark figure renders.
func TestGoldenFigureRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set")
	}
	figures := []struct {
		name   string
		render func(*bytes.Buffer)
	}{
		{"fig3", func(b *bytes.Buffer) { bench.RunFigure3().Render(b) }},
		{"fig8", func(b *bytes.Buffer) { bench.RunFigure8().Render(b) }},
		{"fig11a", func(b *bytes.Buffer) { bench.Figure11a().Render(b) }},
		{"fig11b", func(b *bytes.Buffer) { bench.Figure11b().Render(b) }},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			var b bytes.Buffer
			fig.render(&b)
			sum := sha256.Sum256(b.Bytes())
			if got, want := hex.EncodeToString(sum[:]), goldenFigures[fig.name]; got != want {
				t.Errorf("render sha256 %s, want %s\n%s", got, want, b.String())
			}
		})
	}
}
