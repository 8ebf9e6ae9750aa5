package main

import (
	"dcsctrl/internal/trace"
)

// metric is one reported number. End-to-end metrics carry the bound by
// which a change may worsen them; per-layer metrics name the
// end-to-end metric each is expected to move, and where.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the median
	moves              string  // per-layer only
}

// Host time is what the simulator takes to run; simulated (sim_*)
// numbers are what the modelled hardware would take and must not move
// under a simulator-only change.
var endToEnd = []metric{
	// Operations per host second of the measured phase: Swift
	// requests, rack flows or forked cells.
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	// Host seconds to build and stage, before the first measured event.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// VmHWM of the repetition's process, read after the measured phase.
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	// Live heap after the workload drops its testbeds and collects.
	{name: "retained_heap_mb", unit: "MB", better: "lower", bound: 0.1},
	// 1 - failed/attempted operations.
	{name: "success_rate", unit: "ratio", better: "higher", bound: 0.01},
	// Simulated per-operation latency: Swift request latency (on
	// warmfork-grid, of the forked cells' requests) or rack flow
	// completion time.
	{name: "sim_lat_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "sim_lat_p99_us", unit: "us", better: "lower", bound: 0.25},
	// Simulated payload throughput.
	{name: "sim_gbps", unit: "Gb/s", better: "higher", bound: 0.15},
	// Simulated server CPU utilisation (mean node utilisation on the rack).
	{name: "sim_server_cpu_pct", unit: "%", better: "lower", bound: 0.15},
}

// hostCategories are the simulated-CPU categories reported as
// hostos.busy_ms.<category>; CatIdleWait is latency only, never CPU.
var hostCategories = []trace.Category{
	trace.CatUser, trace.CatFileSystem, trace.CatBlockLayer, trace.CatNetStack,
	trace.CatDevCtrl, trace.CatDataCopy, trace.CatGPUCtrl, trace.CatGPUCopy,
	trace.CatInterrupt, trace.CatHDCDriver, trace.CatScoreboard, trace.CatRead,
	trace.CatWrite, trace.CatHash, trace.CatNICTransmit, trace.CatPageCache,
	trace.CatSockBuf, trace.CatRetry, trace.CatFallback,
}

const (
	opsAll   = "ops_per_s on every workload"
	opsSwift = "ops_per_s on swift-dcs"
	opsRack  = "ops_per_s on rack-alltoall"
	handler  = "ops_per_s on swift-dcs; retained_heap_mb on every workload"
	snapshot = "ops_per_s and peak_rss_mb on warmfork-grid"
	setup    = "setup_s and peak_rss_mb on every workload, most on warmfork-grid"
	runtimes = "ops_per_s and retained_heap_mb on every workload"
	nothing  = "nothing: outside the measured phase"
)

// perLayer lists the traced run's metrics in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	m := []metric{
		{name: "sim.events_per_op", unit: "count", better: "lower", moves: opsAll},
		{name: "sim.host_ns_per_event", unit: "ns", better: "lower", moves: opsAll},
		{name: "sim.fused_frac", unit: "ratio", better: "higher", moves: opsAll},
		{name: "sim.parks_per_op", unit: "count", better: "lower", moves: handler},
		{name: "sim.handoffs_per_event", unit: "count", better: "lower", moves: handler},
		{name: "sim.handler_frac", unit: "ratio", better: "higher", moves: handler},
		{name: "shard.windows", unit: "count", better: "lower", moves: opsRack + "; unchanged on swift-dcs"},
		{name: "shard.par_window_frac", unit: "ratio", better: "higher", moves: opsRack + "; unchanged on swift-dcs"},
		{name: "shard.cross_frames_per_window", unit: "count", better: "higher", moves: opsRack + "; unchanged on swift-dcs"},
		{name: "snap.image_mb", unit: "MB", better: "lower", moves: snapshot},
		{name: "snap.save_s", unit: "s", better: "lower", moves: snapshot},
		{name: "snap.restore_s", unit: "s", better: "lower", moves: snapshot},
		{name: "core.build_s", unit: "s", better: "lower", moves: setup},
		{name: "core.stage_s", unit: "s", better: "lower", moves: setup},
		{name: "mem.heap_after_setup_mb", unit: "MB", better: "lower", moves: setup},
		{name: "nvme.cmds_per_op", unit: "count", better: "lower", moves: opsSwift},
		{name: "hdc.cmds_per_op", unit: "count", better: "lower", moves: opsSwift},
		{name: "hdc.driver_retries", unit: "count", better: "lower", moves: opsSwift},
		{name: "ndp.mb_per_op", unit: "MB", better: "lower", moves: opsSwift},
		{name: "pcie.host_mb_per_op", unit: "MB", better: "lower", moves: opsSwift},
		{name: "nic.frames_per_op", unit: "count", better: "lower", moves: opsSwift},
		{name: "ether.seg_frame_frac", unit: "ratio", better: "higher", moves: opsSwift},
		{name: "ether.fabric_frames_per_flow", unit: "count", better: "lower", moves: opsRack},
	}
	for _, c := range hostCategories {
		m = append(m, metric{name: "hostos.busy_ms." + string(c), unit: "ms", better: "lower",
			moves: "sim_server_cpu_pct on every workload"})
	}
	m = append(m,
		metric{name: "bench.payload_s", unit: "s", better: "lower", moves: nothing},
		metric{name: "bench.verify_s", unit: "s", better: "lower", moves: nothing},
		metric{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower", moves: runtimes},
		metric{name: "runtime.gc_cpu_pct", unit: "%", better: "lower", moves: runtimes},
		metric{name: "runtime.goroutines_left", unit: "count", better: "lower", moves: runtimes},
	)
	for _, mod := range modules {
		m = append(m, metric{name: "cpu_pct." + mod, unit: "%", better: "lower", moves: opsAll})
	}
	return append(m, metric{name: "trace.overhead_pct", unit: "%", better: "lower",
		moves: "nothing: the profiler's own cost"})
}
