package main

import (
	"fmt"
	"math"
)

// runResult is what one benchmark run reports: the contract's last
// output line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds a run's repetitions into metric values. Simulated
// results and work counters come from the first repetition of each
// batch (later ones repeat it exactly); host-side numbers are medians
// over the untraced repetitions.
type summary struct {
	first     []repOut // first repetition of each batch, in batch order
	untraced  []repOut
	traced    []repOut
	problems  []string
	attempted int
	failed    int
}

func summarize(reps []repOut, batches int) summary {
	var s summary
	fps := map[int]string{}
	for _, r := range reps {
		s.attempted += r.Attempted
		s.failed += r.Failed
		for _, p := range r.Problems {
			s.problems = append(s.problems, fmt.Sprintf("batch %d: %s", r.Batch, p))
		}
		if fp, seen := fps[r.Batch]; !seen {
			fps[r.Batch] = r.Fingerprint
			s.first = append(s.first, r)
		} else if fp != r.Fingerprint {
			// A repeat that diverges fails every operation it ran.
			s.failed += r.Ops
			s.problems = append(s.problems, fmt.Sprintf("batch %d: repeat fingerprint %s, first run %s", r.Batch, r.Fingerprint, fp))
		}
		if r.Traced {
			s.traced = append(s.traced, r)
		} else {
			s.untraced = append(s.untraced, r)
		}
	}
	if len(s.first) != batches {
		s.problems = append(s.problems, fmt.Sprintf("ran %d of %d batches", len(s.first), batches))
	}
	return s
}

// medianOf is the median of f over reps.
func medianOf(reps []repOut, f func(repOut) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

func opsPerSec(r repOut) float64 { return ratio(float64(r.Ops), r.MeasuredS) }

// latencies pools the simulated per-operation latencies of the
// distinct batches.
func (s summary) latencies() []float64 {
	var lat []float64
	for _, r := range s.first {
		lat = append(lat, r.LatUs...)
	}
	return lat
}

// endToEndValues computes the untraced run's metrics.
func (s summary) endToEndValues() map[string]float64 {
	lat := s.latencies()
	var bytes int64
	var simS, cpuxS, cpuWindowS float64
	for _, r := range s.first {
		bytes += r.SimBytes
		simS += r.SimSeconds
		cpuxS += r.CPUxS
		cpuWindowS += r.CPUWindowS
	}
	v := map[string]float64{
		"ops_per_s":          medianOf(s.untraced, opsPerSec),
		"setup_s":            medianOf(s.untraced, func(r repOut) float64 { return r.BuildS + r.StageS }),
		"peak_rss_mb":        medianOf(s.untraced, func(r repOut) float64 { return r.PeakRSSMB }),
		"retained_heap_mb":   medianOf(s.untraced, func(r repOut) float64 { return r.RetainedHeapMB }),
		"success_rate":       1,
		"sim_lat_p50_us":     percentile(lat, 50),
		"sim_lat_p99_us":     percentile(lat, 99),
		"sim_gbps":           ratio(float64(bytes)*8/1e9, simS),
		"sim_server_cpu_pct": 100 * ratio(cpuxS, cpuWindowS),
	}
	if s.attempted > 0 {
		v["success_rate"] = 1 - float64(s.failed)/float64(s.attempted)
	}
	return v
}

// perLayerValues computes the traced run's metrics.
func (s summary) perLayerValues() map[string]float64 {
	c := map[string]float64{}
	busy := map[string]float64{}
	var ops float64
	for _, r := range s.first {
		ops += float64(r.Ops)
		for k, x := range r.Counts {
			c[k] += x
		}
		for k, x := range r.HostBusyMs {
			busy[k] += x
		}
	}
	const mb = 1 << 20
	med := func(f func(repOut) float64) float64 { return medianOf(s.untraced, f) }
	v := map[string]float64{
		"sim.events_per_op":      ratio(c["events"], ops),
		"sim.host_ns_per_event":  med(func(r repOut) float64 { return ratio(r.MeasuredS*1e9, r.Counts["events"]) }),
		"sim.fused_frac":         ratio(c["fused"], c["events"]+c["fused"]),
		"sim.parks_per_op":       ratio(c["parks"], ops),
		"sim.handoffs_per_event": ratio(c["handoffs"], c["events"]),
		"sim.handler_frac":       ratio(c["handler_dispatches"], c["handler_dispatches"]+c["parks"]),

		"shard.windows":                 ratio(c["shard_windows"], float64(len(s.first))),
		"shard.par_window_frac":         ratio(c["shard_par_windows"], c["shard_windows"]),
		"shard.cross_frames_per_window": ratio(c["shard_cross_frames"], c["shard_windows"]),

		"snap.image_mb":  medianOf(s.first, func(r repOut) float64 { return r.ImageMB }),
		"snap.save_s":    med(func(r repOut) float64 { return r.SaveS }),
		"snap.restore_s": med(func(r repOut) float64 { return r.RestoreS }),

		"core.build_s":            med(func(r repOut) float64 { return r.BuildS }),
		"core.stage_s":            med(func(r repOut) float64 { return r.StageS }),
		"mem.heap_after_setup_mb": med(func(r repOut) float64 { return r.HeapAfterSetupMB }),

		"nvme.cmds_per_op":             ratio(c["nvme_cmds"], ops),
		"hdc.cmds_per_op":              ratio(c["hdc_cmds"], ops),
		"hdc.driver_retries":           c["hdc_retries"],
		"ndp.mb_per_op":                ratio(c["ndp_bytes"]/mb, ops),
		"pcie.host_mb_per_op":          ratio(c["pcie_host_bytes"]/mb, ops),
		"nic.frames_per_op":            ratio(c["nic_frames"], ops),
		"ether.seg_frame_frac":         ratio(c["seg_frames"], c["nic_tx_frames"]),
		"ether.fabric_frames_per_flow": ratio(c["fabric_frames"], c["flows"]),

		"bench.payload_s": medianOf(s.first, func(r repOut) float64 { return r.PayloadS }),
		"bench.verify_s":  medianOf(s.first, func(r repOut) float64 { return r.VerifyS }),

		"runtime.alloc_mb_per_op": med(func(r repOut) float64 { return ratio(r.AllocMB, float64(r.Ops)) }),
		"runtime.gc_cpu_pct":      med(func(r repOut) float64 { return r.GCCPUPct }),
		"runtime.goroutines_left": med(func(r repOut) float64 { return float64(r.GoroutinesLeft) }),
	}
	for _, cat := range hostCategories {
		v["hostos.busy_ms."+string(cat)] = busy[string(cat)]
	}
	cpu := map[string]int64{}
	var total int64
	for _, r := range s.traced {
		for m, ns := range r.CPUNs {
			cpu[m] += ns
			total += ns
		}
	}
	for _, m := range modules {
		v["cpu_pct."+m] = 100 * ratio(float64(cpu[m]), float64(total))
	}
	v["trace.overhead_pct"] = 100 * (1 - ratio(medianOf(s.traced, opsPerSec), medianOf(s.untraced, opsPerSec)))
	return v
}

// result assembles the output line from computed values, in the units
// of the given metric list. Any value that is not a finite number is a
// failed check.
func (s *summary) result(list []metric, values map[string]float64) runResult {
	res := runResult{
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range list {
		x, ok := values[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			s.problems = append(s.problems, fmt.Sprintf("metric %s has no value", m.name))
			continue
		}
		res.Metrics[m.name] = metricValue{Value: x, Unit: m.unit}
	}
	res.Correct = len(s.problems) == 0 && s.failed == 0
	return res
}
