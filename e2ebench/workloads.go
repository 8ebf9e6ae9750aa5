package main

import (
	"fmt"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/core"
	"dcsctrl/internal/hdc"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
	"dcsctrl/internal/trace"
)

// workloadSpec is one named benchmark workload. A run of it is a sequence
// of repetitions; repetition r runs batch r mod batches, so the first
// `batches` repetitions cover distinct inputs (their simulated results
// are pooled) and later ones repeat them (they add host-time samples
// and must reproduce the same fingerprint).
type workloadSpec struct {
	name    string
	why     string
	batches int
	// tailRule requires enough latency samples that minTail of them
	// lie beyond p99.
	tailRule bool
	run      func(r *rep, seed uint64, verify bool) error
}

var workloads = []workloadSpec{
	{
		name:     "swift-dcs",
		why:      "Swift object server on a DCS-ctrl node: HDC engine, NVMe, NDP MD5, PCIe peer-to-peer and goroutine procs; no shard, fabric or snapshot work",
		batches:  swiftBatches,
		tailRule: true,
		run:      runSwift,
	},
	{
		name:     "rack-alltoall",
		why:      "64-node SW-opt rack on 4 shard domains: shard kernel, fabric frames, host stream buffers and memmove; the no-change control for engine work",
		batches:  1,
		tailRule: true,
		run:      runRack,
	},
	{
		name:    "warmfork-grid",
		why:     "DCS-ctrl Swift warmed once, checkpointed and forked into cells: snapshot codec and whole-region memory scans dominate",
		batches: warmForkBatches,
		run:     runWarmFork,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// pins are each workload's per-batch fingerprints at seed 0. A run at
// seed 0 that reproduces any other fingerprint is wrong.
var pins = map[string][]string{
	"swift-dcs":     {"0c71bc2b2a7716bf", "a70ef9c9edcfd83c", "8ec5f103dc502ea8", "a7669ff2950bfecb", "bb528bfe2319d336"},
	"rack-alltoall": {"8690418e77eab99b92b0cfdad3b04930"},
	"warmfork-grid": {"9208f20772143cbc", "57e4ec748afb019e", "94bd8288d41089c0", "70da6e98bdaf7582",
		"273c808bcebf2774", "bf0f51b60a883fca", "d3f43275fe098acb", "3598a081ffb4517f"},
}

// checkPin compares a batch fingerprint with its seed-0 pin.
func checkPin(r *rep, name string, seed uint64, batch int, fp string) {
	r.out.Fingerprint = fp
	if seed != 0 {
		return
	}
	if p := pins[name]; batch >= len(p) || fp != p[batch] {
		r.problem("%s batch %d fingerprint %s does not match its pin", name, batch, fp)
	}
}

// swiftFingerprint digests a Swift phase's schedule counters and
// results, in the same form as the repository's warm-fork grid cells.
func swiftFingerprint(env *sim.Env, res apps.SwiftResult) string {
	st := env.Stats()
	return snap.ContentHash([]byte(fmt.Sprintf(
		"now=%d events=%d fused=%d ios=%d segs=%d segframes=%d req=%d gets=%d puts=%d bytes=%d errs=%d getlat=%.3f putlat=%.3f elapsed=%d",
		env.Now(), st.Events, st.Fused, st.IOs, st.Segments, st.SegFrames,
		res.Requests, res.GETs, res.PUTs, res.Bytes, res.Errors,
		res.GETLatency.Sum(), res.PUTLatency.Sum(), res.Elapsed)))
}

// sampleValues returns every observation of a sample in ascending
// order, read back through its nearest-rank percentile accessor.
func sampleValues(s *trace.Sample) []float64 {
	n := s.N()
	out := make([]float64, n)
	for k := 1; k <= n; k++ {
		// (k-0.5)/n lands strictly inside rank k's interval.
		out[k-1] = s.Percentile(100 * (float64(k) - 0.5) / float64(n))
	}
	return out
}

// poolSwift pools one Swift phase's request latencies, server CPU and
// simulated CPU per category. It reports whether the phase ran clean:
// no failed request, and counts that add up.
func poolSwift(r *rep, res apps.SwiftResult) bool {
	o := &r.out
	clean := true
	if res.Errors > 0 {
		r.problem("swift: %d failed requests", res.Errors)
		clean = false
	}
	if res.GETs+res.PUTs != res.Requests || res.GETLatency.N()+res.PUTLatency.N() != res.Requests {
		r.problem("swift: %d requests but %d GETs + %d PUTs, %d + %d latencies",
			res.Requests, res.GETs, res.PUTs, res.GETLatency.N(), res.PUTLatency.N())
		clean = false
	}
	o.LatUs = append(o.LatUs, sampleValues(&res.GETLatency)...)
	o.LatUs = append(o.LatUs, sampleValues(&res.PUTLatency)...)
	o.CPUxS += res.ServerCPU * res.Elapsed.Seconds()
	o.CPUWindowS += res.Elapsed.Seconds()
	for cat, busy := range res.ServerBusy {
		o.HostBusyMs[string(cat)] += float64(busy) / float64(sim.Millisecond)
	}
	return clean
}

// counters reads the work counters of a set of kernels and the devices
// of a set of nodes. Per-layer counts are the difference between two
// readings taken around the measured phase.
func counters(envs []*sim.Env, nodes []*core.Node) map[string]float64 {
	c := map[string]float64{}
	for _, e := range envs {
		st := e.Stats()
		c["events"] += float64(st.Events)
		c["fused"] += float64(st.Fused)
		c["parks"] += float64(st.Parks)
		c["handoffs"] += float64(st.Handoffs)
		c["handler_dispatches"] += float64(st.HandlerDispatches)
		c["seg_frames"] += float64(st.SegFrames)
	}
	for _, n := range nodes {
		for _, ssd := range n.SSDs {
			cmds, _, _ := ssd.Stats()
			c["nvme_cmds"] += float64(cmds)
		}
		if n.Engine != nil {
			c["hdc_cmds"] += float64(n.Engine.CommandsDone())
			for _, fn := range ndpFuncs {
				if bank, ok := n.Engine.Bank(fn); ok {
					_, b := bank.Stats()
					c["ndp_bytes"] += float64(b)
				}
			}
		}
		if n.Driver != nil {
			c["hdc_retries"] += float64(n.Driver.Retries())
		}
		c["pcie_host_bytes"] += float64(n.Fab.HostBytes())
		tx, rx, txPayload, rxPayload, _, _ := n.NIC.Stats()
		c["nic_frames"] += float64(tx + rx)
		c["nic_tx_frames"] += float64(tx)
		if n.Name == "server" {
			c["server_nic_payload"] += float64(txPayload + rxPayload)
		}
	}
	return c
}

// ndpFuncs are the NDP functions an engine can hold a bank for.
var ndpFuncs = []uint8{hdc.FnMD5, hdc.FnCRC32, hdc.FnSHA256, hdc.FnAES256, hdc.FnGZIP, hdc.FnGUNZIP}

// addDelta adds the counts accrued between two readings to dst.
func addDelta(dst, before, after map[string]float64) {
	for k, v := range after {
		dst[k] += v - before[k]
	}
}

// clusterCounters reads a two-node cluster's counters.
func clusterCounters(env *sim.Env, cl *core.Cluster) map[string]float64 {
	return counters([]*sim.Env{env}, []*core.Node{cl.Server, cl.Client})
}
