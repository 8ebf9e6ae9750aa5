package dcsctrl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"dcsctrl"
	"dcsctrl/internal/fault"
)

// swiftFingerprint runs a short Swift workload under fault injection
// and hashes everything observable about the run: request counts and
// byte totals, per-category CPU busy time, latency samples, the final
// simulated clock, and the injector's per-site fire counts. Two runs
// with the same seeds must produce identical hashes.
func swiftFingerprint(t *testing.T, cfg dcsctrl.Config, workloadSeed, faultSeed uint64) string {
	t.Helper()
	tb := dcsctrl.NewTestbed(cfg, dcsctrl.WithFaults(faultSeed, fault.Light()))
	defer tb.Close()
	sc := dcsctrl.DefaultSwiftConfig()
	sc.Seed = workloadSeed
	sc.Conns = 4
	sc.Warmup = 1 * dcsctrl.Millisecond
	sc.Duration = 5 * dcsctrl.Millisecond
	res, err := tb.RunSwift(sc)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	fmt.Fprintf(h, "req=%d get=%d put=%d bytes=%d elapsed=%d errors=%d gbps=%.12e cpu=%.12e\n",
		res.Requests, res.GETs, res.PUTs, res.Bytes, res.Elapsed, res.Errors, res.Gbps, res.ServerCPU)
	cats := make([]string, 0, len(res.ServerBusy))
	for c := range res.ServerBusy {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Fprintf(h, "busy[%s]=%d\n", c, res.ServerBusy[dcsctrl.Category(c)])
	}
	fmt.Fprintf(h, "getlat=%+v putlat=%+v\n", res.GETLatency, res.PUTLatency)
	fmt.Fprintf(h, "now=%d\n", tb.Env.Now())
	fmt.Fprintf(h, "faults=%s\n", tb.Faults().StatsString())
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeterminism runs every configuration twice with identical seeds
// (fingerprints must match bit for bit) and once with different seeds
// (fingerprints must diverge — otherwise the seeds are dead knobs and
// the identical-hash check proves nothing).
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run workload sweep")
	}
	configs := []dcsctrl.Config{dcsctrl.Vanilla, dcsctrl.SWOpt, dcsctrl.SWP2P, dcsctrl.DCSCtrl}
	for _, cfg := range configs {
		t.Run(cfg.String(), func(t *testing.T) {
			a := swiftFingerprint(t, cfg, 11, 7)
			b := swiftFingerprint(t, cfg, 11, 7)
			if a != b {
				t.Fatalf("same seeds, different fingerprints:\n a=%s\n b=%s", a, b)
			}
			c := swiftFingerprint(t, cfg, 12, 7)
			if c == a {
				t.Fatal("different workload seed produced an identical fingerprint")
			}
			d := swiftFingerprint(t, cfg, 11, 8)
			if d == a {
				t.Fatal("different fault seed produced an identical fingerprint")
			}
		})
	}
}
