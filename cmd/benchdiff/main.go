// Command benchdiff compares a freshly generated benchmark report
// against a checked-in baseline and exits non-zero on regressions:
//
//   - any ns/op (or ns/event) metric more than -tolerance (default
//     25%) slower than the baseline,
//   - ANY allocations on a path whose baseline is zero allocs/op —
//     zero-allocation paths are a hard invariant, not a budget — and
//   - any events-per-op / events-per-I/O count more than 10% above the
//     baseline. Event counts are deterministic (they come from the
//     simulation schedule, not the wall clock), so this gate is immune
//     to runner noise and catches protocol-efficiency regressions that
//     ns/op tolerances would absorb, and
//   - any path whose baseline collapses frames into analytic flow
//     segments (seg_frames_per_op > 0) that stops collapsing them —
//     the knob-not-dead gate for the wire fast path. A silently dead
//     fast path would also trip the events gate, but this one names
//     the cause instead of the symptom, and
//   - handoffs-per-event (the goroutine park/resume tax the handler-
//     proc conversion exists to kill) more than 10% above the baseline
//     — the counter is deterministic, so growth means converted loops
//     regressed to goroutine dispatch (HANDOFF), and
//   - the handler-dispatch knob going dead: a fresh kernel report's
//     kernel_park_resume_handler entry must actually dispatch handlers
//     with zero handoffs and beat the goroutine flavor's ns/event by
//     the ≥25% the conversion promises (NOHANDLER), and
//   - rack entries (the sharded parallel kernel): a fresh multi-domain
//     multi-worker rack whose par_windows is zero ran silently serial
//     (NOPAR — the parallel knob went dead), and rack entries for the
//     same workload (same name up to the domain-count suffix) must
//     carry identical result fingerprints (FPDIV — a decomposition
//     changed the simulated schedule, a determinism violation).
//     Fingerprint drift against the BASELINE is informational only:
//     it means the workload or timing model changed and the baseline
//     needs regenerating, which ns gates already force, and
//   - the checkpoint/restore knob going dead (NOCKPT): a fresh kernel
//     report's checkpoint section must show warm-fork cells running
//     with every forked fingerprint byte-identical to its
//     straight-through reference, a non-empty snapshot, and a
//     warm-fork wall-clock speedup of at least 1.3x, a per-cell restore
//     within 10x of the baseline's (restores alias the checkpoint's
//     pages; an eager copy is ~50x slower) — and the section itself
//     must not vanish when the baseline carries one.
//
// It understands both report shapes emitted by cmd/dcsbench:
// BENCH_dataplane.json (data-plane microbenchmarks) and
// BENCH_kernel.json (kernel microbenchmarks + figure wall times).
// Metrics present in only one file are reported but never fail the
// diff, so CI can regenerate a subset of the baseline's figures.
//
// Usage:
//
//	benchdiff -baseline BENCH_dataplane.json -fresh fresh_dataplane.json
//	benchdiff -baseline BENCH_kernel.json -fresh fresh_kernel.json -tolerance 0.5
//
// With -hotpaths (the JSON emitted by `dcslint -hotpaths`), benchdiff
// also cross-checks the baseline's zero-allocation promises against
// the //dcslint:hotpath roots the prover actually guards: every bench
// with allocs_per_op == 0 must be named by some root's directive, and
// every bench a directive names must exist and be zero-alloc. This
// keeps the static proof and the measured invariant from drifting
// apart — a new zero-alloc bench without a prover root, or a root
// still naming a bench that grew allocations, both fail CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one comparable measurement extracted from a report.
type metric struct {
	ns        float64 // time per op/event; 0 = absent
	allocs    float64
	events    float64 // kernel events per op / per I/O; 0 = absent
	segFrames float64 // frames collapsed into flow segments per op
	hasNs     bool
	zeroed    bool // baseline promises zero allocs on this path
	soft      bool // informational only (whole-run wall clocks): never fails

	handoffs   float64 // goroutine park/resume handoffs (deterministic)
	hdispatch  float64 // run-to-completion handler dispatches
	handoffsPE float64 // handoffs per event; 0 = absent

	rack        bool // entry is a sharded rack measurement
	domains     int
	workers     int
	parWindows  float64
	fingerprint string
}

// eventTolerance is the hard ceiling on deterministic event-count
// growth: more than 10% over baseline fails regardless of -tolerance.
const eventTolerance = 0.10

type kernelStats struct {
	NsPerEvent        float64 `json:"ns_per_event"`
	AllocsPerEvent    float64 `json:"allocs_per_event"`
	Handoffs          float64 `json:"handoffs"`
	HandlerDispatches float64 `json:"handler_dispatches"`
	HandoffsPerEvent  float64 `json:"handoffs_per_event"`
}

type kernelReport struct {
	KernelSchedule          *kernelStats `json:"kernel_schedule"`
	KernelParkResume        *kernelStats `json:"kernel_park_resume"`
	KernelParkResumeHandler *kernelStats `json:"kernel_park_resume_handler"`
	Protocol                []struct {
		Name        string  `json:"name"`
		EventsPerIO float64 `json:"events_per_io"`
	} `json:"protocol"`
	Figures []struct {
		Name   string  `json:"name"`
		WallMs float64 `json:"wall_ms"`
	} `json:"figures"`
	Racks []struct {
		Name              string  `json:"name"`
		Domains           int     `json:"domains"`
		Workers           int     `json:"workers"`
		NsPerFlow         float64 `json:"ns_per_flow"`
		EventsPerFlow     float64 `json:"events_per_flow"`
		ParWindows        float64 `json:"par_windows"`
		Handoffs          float64 `json:"handoffs"`
		HandlerDispatches float64 `json:"handler_dispatches"`
		HandoffsPerEvent  float64 `json:"handoffs_per_event"`
		Fingerprint       string  `json:"fingerprint"`
	} `json:"racks"`
	Checkpoint *checkpointPerf `json:"checkpoint"`
}

// checkpointPerf mirrors the kernel report's checkpoint section: the
// warm-fork grid's codec cost and the straight-vs-forked verdict.
type checkpointPerf struct {
	Config        string  `json:"config"`
	Cells         int     `json:"cells"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	SaveNs        float64 `json:"save_ns"`
	RestoreNs     float64 `json:"restore_ns"`
	StraightMs    float64 `json:"straight_ms"`
	ForkedMs      float64 `json:"forked_ms"`
	Speedup       float64 `json:"speedup"`
	AllMatch      bool    `json:"all_match"`
}

type dataplaneReport struct {
	Benches []struct {
		Name           string  `json:"name"`
		NsPerOp        float64 `json:"ns_per_op"`
		AllocsPerOp    float64 `json:"allocs_per_op"`
		EventsPerOp    float64 `json:"events_per_op"`
		SegFramesPerOp float64 `json:"seg_frames_per_op"`
	} `json:"benches"`
}

// load parses path into name→metric plus the optional checkpoint
// section, detecting the report shape.
func load(path string) (map[string]metric, *checkpointPerf, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]metric{}

	var dp dataplaneReport
	if err := json.Unmarshal(data, &dp); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(dp.Benches) > 0 {
		for _, b := range dp.Benches {
			out[b.Name] = metric{ns: b.NsPerOp, allocs: b.AllocsPerOp, events: b.EventsPerOp,
				segFrames: b.SegFramesPerOp, hasNs: true, zeroed: b.AllocsPerOp == 0}
		}
		return out, nil, nil
	}

	var kr kernelReport
	if err := json.Unmarshal(data, &kr); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if kr.KernelSchedule == nil && kr.KernelParkResume == nil {
		return nil, nil, fmt.Errorf("%s: neither a dataplane nor a kernel report", path)
	}
	kernelMetric := func(s *kernelStats) metric {
		return metric{ns: s.NsPerEvent, allocs: s.AllocsPerEvent, hasNs: true,
			handoffs: s.Handoffs, hdispatch: s.HandlerDispatches, handoffsPE: s.HandoffsPerEvent}
	}
	if s := kr.KernelSchedule; s != nil {
		out["kernel_schedule"] = kernelMetric(s)
	}
	if s := kr.KernelParkResume; s != nil {
		out["kernel_park_resume"] = kernelMetric(s)
	}
	if s := kr.KernelParkResumeHandler; s != nil {
		out["kernel_park_resume_handler"] = kernelMetric(s)
	}
	for _, pr := range kr.Protocol {
		out["protocol:"+pr.Name] = metric{events: pr.EventsPerIO}
	}
	// Figure wall times ride along informationally: they are whole-run
	// wall clocks, far too noisy on shared CI runners to gate on, so
	// they are printed in the table but never fail the diff.
	for _, f := range kr.Figures {
		out["figure:"+f.Name] = metric{ns: f.WallMs * 1e6, hasNs: true, soft: true}
	}
	// Rack entries: ns_per_flow gates like any other ns metric,
	// events_per_flow is deterministic and gets the hard event gate,
	// and the shard counters feed the NOPAR/FPDIV checks.
	for _, r := range kr.Racks {
		out[r.Name] = metric{
			ns: r.NsPerFlow, hasNs: true, events: r.EventsPerFlow,
			rack: true, domains: r.Domains, workers: r.Workers,
			parWindows: r.ParWindows, fingerprint: r.Fingerprint,
			handoffs: r.Handoffs, hdispatch: r.HandlerDispatches,
			handoffsPE: r.HandoffsPerEvent,
		}
	}
	return out, kr.Checkpoint, nil
}

// checkCheckpointKnob is the knob-not-dead gate for the snapshot/
// restore path (NOCKPT). A fresh kernel report that carries a
// checkpoint section must show a live, correct, paying warm-fork
// grid: cells ran, every forked fingerprint matched its straight
// reference, the snapshot is non-trivial, and the fork is at least
// 30% faster wall-clock than straight-through at equal cell count.
// AllMatch and the cell count are deterministic; the speedup is a
// same-machine wall-clock ratio, so it holds on slow runners too. A
// baseline with a checkpoint section also pins the section's
// presence: a fresh report without one means the grid silently
// stopped running.
func checkCheckpointKnob(base, cur *checkpointPerf) []string {
	if cur == nil {
		if base != nil {
			return []string{"NOCKPT checkpoint: baseline has a warm-fork section but fresh report has none (grid not running)"}
		}
		return nil
	}
	var bad []string
	if cur.Cells == 0 {
		bad = append(bad, "NOCKPT checkpoint: zero warm-fork cells ran (knob dead)")
	}
	if !cur.AllMatch {
		bad = append(bad, "NOCKPT checkpoint: forked cell fingerprints diverged from straight-through (restore broken)")
	}
	if cur.SnapshotBytes == 0 {
		bad = append(bad, "NOCKPT checkpoint: empty snapshot (codec dead)")
	}
	// The default grid targets >=1.3x (and measures 1.3-1.4x on a quiet
	// machine); the gate floors at 1.1x so shared-runner noise cannot
	// flake the build while a genuinely dead knob (restore as slow as
	// re-warming, ~1.0x) still trips it.
	if cur.Cells > 0 && cur.Speedup < 1.1 {
		bad = append(bad, fmt.Sprintf(
			"NOCKPT checkpoint: warm-fork speedup %.2fx below the 1.1x floor (forking no longer pays)", cur.Speedup))
	}
	// Copy-on-write restores cost page-table work, not a copy of the
	// image; the 10x band absorbs runner speed while an eager copy of
	// the ~100 MB image (~50x the baseline) still trips it.
	if base != nil && base.RestoreNs > 0 && cur.RestoreNs > 10*base.RestoreNs {
		bad = append(bad, fmt.Sprintf(
			"NOCKPT checkpoint: restore %.1f ms per cell, over 10x the baseline %.1f ms (restores copy the image again)",
			cur.RestoreNs/1e6, base.RestoreNs/1e6))
	}
	return bad
}

// rackGroup keys a rack entry by workload: the name minus its
// trailing domain-count suffix ("rack_alltoall_64x4" → workload
// "rack_alltoall_64"). Entries in one group ran the same flows, so
// their fingerprints must match whatever the decomposition.
func rackGroup(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == 'x' {
			return name[:i]
		}
	}
	return name
}

// checkRackFingerprints verifies fingerprint equality within each
// same-workload group of one report, returning findings.
func checkRackFingerprints(label string, m map[string]metric) []string {
	groups := map[string]map[string]bool{}
	for name, mt := range m {
		if !mt.rack || mt.fingerprint == "" {
			continue
		}
		if groups[rackGroup(name)] == nil {
			groups[rackGroup(name)] = map[string]bool{}
		}
		groups[rackGroup(name)][mt.fingerprint] = true
	}
	var bad []string
	for g, fps := range groups {
		if len(fps) > 1 {
			bad = append(bad, fmt.Sprintf("FPDIV %s: %d distinct fingerprints across %s decompositions", label, len(fps), g))
		}
	}
	sort.Strings(bad)
	return bad
}

// checkHandlerKnob verifies the run-to-completion dispatch path is
// alive in the fresh kernel report: kernel_park_resume_handler must
// actually dispatch handlers, complete them without a single
// goroutine handoff, and beat the goroutine flavor's ns/event by at
// least the 25% the conversion promises. All three counters are
// deterministic (and the ns margin is ~15x in practice), so this is a
// hard gate; reports without the entry (dataplane, partial
// regenerations) pass untouched.
func checkHandlerKnob(cur map[string]metric) []string {
	h, ok := cur["kernel_park_resume_handler"]
	if !ok {
		return nil
	}
	var bad []string
	if h.hdispatch == 0 {
		bad = append(bad, "NOHANDLER kernel_park_resume_handler: zero handler dispatches (knob dead)")
	}
	if h.handoffs > 0 {
		bad = append(bad, fmt.Sprintf(
			"NOHANDLER kernel_park_resume_handler: %g goroutine handoffs in handler mode (run-to-completion broken)", h.handoffs))
	}
	if g, ok := cur["kernel_park_resume"]; ok && g.ns > 0 && h.ns > 0.75*g.ns {
		bad = append(bad, fmt.Sprintf(
			"NOHANDLER kernel_park_resume_handler: %.2f ns/event is not >=25%% under goroutine %.2f (handoff tax not killed)", h.ns, g.ns))
	}
	return bad
}

// hotpathRoot mirrors one entry of `dcslint -hotpaths` output: a
// //dcslint:hotpath-tagged function and the benches its directive
// names.
type hotpathRoot struct {
	Func    string   `json:"func"`
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Benches []string `json:"benches"`
}

// checkHotpaths cross-checks the baseline's zero-alloc benches against
// the prover's root set, in both directions:
//
//   - a zero-alloc bench no root names is an unguarded invariant: the
//     allocation-freedom BENCH_dataplane.json asserts is not being
//     proven by dcslint, so a regression would only surface at bench
//     time (or never, on a noisy runner);
//   - a root naming a bench that is missing or has allocs_per_op > 0
//     is a stale claim: the directive promises a proof the numbers
//     contradict.
func checkHotpaths(base map[string]metric, path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("HOTPATH cannot read root list: %v", err)}
	}
	var roots []hotpathRoot
	if err := json.Unmarshal(data, &roots); err != nil {
		return []string{fmt.Sprintf("HOTPATH %s: %v", path, err)}
	}
	tagged := map[string]string{} // bench name -> tagged func
	for _, r := range roots {
		for _, b := range r.Benches {
			tagged[b] = r.Func
		}
	}
	var bad []string
	for name, m := range base {
		if m.zeroed && tagged[name] == "" {
			bad = append(bad, fmt.Sprintf(
				"HOTPATH %s: allocs_per_op == 0 but no //dcslint:hotpath root names it; tag the bench's fast-path entry point", name))
		}
	}
	for bench, fn := range tagged {
		m, ok := base[bench]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf(
				"HOTPATH %s: //dcslint:hotpath on %s names a bench missing from the baseline", bench, fn))
		case !m.zeroed:
			bad = append(bad, fmt.Sprintf(
				"HOTPATH %s: //dcslint:hotpath on %s claims zero allocs but baseline has allocs_per_op %g", bench, fn, m.allocs))
		}
	}
	sort.Strings(bad)
	return bad
}

func main() {
	baseline := flag.String("baseline", "", "checked-in baseline report (JSON)")
	fresh := flag.String("fresh", "", "freshly generated report (JSON)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op slowdown before failing")
	hotpaths := flag.String("hotpaths", "", "dcslint -hotpaths output to cross-check zero-alloc benches against prover roots")
	flag.Parse()
	if *baseline == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh are required")
		os.Exit(2)
	}
	base, baseCkpt, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, curCkpt, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("SKIP  %-24s not in fresh report\n", name)
			continue
		}
		status := "ok"
		ratio := 0.0
		if b.ns > 0 {
			ratio = c.ns / b.ns
			if ratio > 1+*tolerance && !b.soft {
				status = "SLOWER"
				failed = true
			}
		}
		if b.zeroed && c.allocs > 0 {
			status = "ALLOCS"
			failed = true
		}
		if b.events > 0 && c.events > b.events*(1+eventTolerance) {
			status = "EVENTS"
			failed = true
		}
		// Handoffs are deterministic like event counts, so growth past
		// the same hard ceiling means simulated loops fell off the
		// run-to-completion path back onto goroutine park/resume.
		if b.handoffsPE > 0 && c.handoffsPE > b.handoffsPE*(1+eventTolerance) {
			status = "HANDOFF"
			failed = true
		}
		if b.segFrames > 0 && c.segFrames == 0 {
			status = "NOSEG" // flow fast path went dead on this bench
			failed = true
		}
		// Knob-not-dead for the shard kernel: a multi-domain multi-worker
		// rack that never dispatched domains in parallel ran silently
		// serial — as did one whose baseline had parallel windows but
		// now reports none. Both arms require fresh workers > 1: a
		// single-core runner legitimately clamps the pool away.
		if c.rack && c.workers > 1 && c.parWindows == 0 &&
			(b.parWindows > 0 || c.domains > 1) {
			status = "NOPAR"
			failed = true
		}
		line := fmt.Sprintf("%-6s %-24s ns %12.2f -> %12.2f (%.2fx)  allocs %g -> %g",
			status, name, b.ns, c.ns, ratio, b.allocs, c.allocs)
		if b.events > 0 || c.events > 0 {
			line += fmt.Sprintf("  events %.2f -> %.2f", b.events, c.events)
		}
		if c.rack && b.fingerprint != "" && c.fingerprint != b.fingerprint {
			// Informational: the ns/events gates decide pass/fail; this
			// names why the baseline needs regenerating.
			line += "  fp changed (baseline regen needed)"
		}
		fmt.Println(line)
	}
	// Determinism gate: every decomposition of one rack workload must
	// land on the same fingerprint. Checked per report side so a bad
	// baseline is caught too.
	for _, side := range []struct {
		label string
		m     map[string]metric
	}{{"baseline", base}, {"fresh", cur}} {
		for _, f := range checkRackFingerprints(side.label, side.m) {
			fmt.Println(f)
			failed = true
		}
	}
	for _, f := range checkHandlerKnob(cur) {
		fmt.Println(f)
		failed = true
	}
	if curCkpt != nil {
		fmt.Printf("ckpt  %-24s cells %d  snapshot %d B  save %.2f ms  restore %.2f ms  speedup %.2fx  fingerprints %v\n",
			curCkpt.Config, curCkpt.Cells, curCkpt.SnapshotBytes,
			curCkpt.SaveNs/1e6, curCkpt.RestoreNs/1e6, curCkpt.Speedup, curCkpt.AllMatch)
	}
	for _, f := range checkCheckpointKnob(baseCkpt, curCkpt) {
		fmt.Println(f)
		failed = true
	}
	if *hotpaths != "" {
		for _, f := range checkHotpaths(base, *hotpaths) {
			fmt.Println(f)
			failed = true
		}
	}
	var added []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		// Baseline-less rack entries still get the NOPAR gate: dead
		// parallelism is a property of the fresh run alone.
		if c := cur[name]; c.rack && c.domains > 1 && c.workers > 1 && c.parWindows == 0 {
			fmt.Printf("NOPAR %-24s (no baseline) multi-domain rack ran serial\n", name)
			failed = true
			continue
		}
		fmt.Printf("NEW   %-24s (no baseline)\n", name)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: regression detected")
		os.Exit(1)
	}
}
