package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// rep is one repetition of a workload batch, run in its own process.
// The workload functions fill it through the phase helpers below, which
// also record the benchmark's spans.
type rep struct {
	out    repOut
	origin time.Time

	profiling bool
	profile   bytes.Buffer

	goroutines0 int
	alloc0      uint64
	gcCPU0      float64
	busyCPU0    float64
	measureT0   time.Time
}

// repOut is what a repetition reports to the parent process.
type repOut struct {
	Batch       int      `json:"batch"`
	Traced      bool     `json:"traced"`
	Fingerprint string   `json:"fingerprint"`
	Ops         int      `json:"ops"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Problems    []string `json:"problems,omitempty"`

	BuildS    float64 `json:"build_s"`
	StageS    float64 `json:"stage_s"`
	MeasuredS float64 `json:"measured_s"`
	PayloadS  float64 `json:"payload_s"`
	VerifyS   float64 `json:"verify_s"`
	SaveS     float64 `json:"save_s"`
	RestoreS  float64 `json:"restore_s"` // per restored cell
	ImageMB   float64 `json:"image_mb"`

	PeakRSSMB        float64 `json:"peak_rss_mb"`
	HeapAfterSetupMB float64 `json:"heap_after_setup_mb"`
	RetainedHeapMB   float64 `json:"retained_heap_mb"`
	GoroutinesLeft   int     `json:"goroutines_left"`
	AllocMB          float64 `json:"alloc_mb"`
	GCCPUPct         float64 `json:"gc_cpu_pct"`

	// Simulated results: per-operation latencies, payload bytes moved
	// in SimSeconds of simulated time, and server CPU utilisation
	// integrated over CPUWindowS simulated seconds.
	LatUs      []float64 `json:"lat_us"`
	SimBytes   int64     `json:"sim_bytes"`
	SimSeconds float64   `json:"sim_seconds"`
	CPUxS      float64   `json:"cpu_x_s"`
	CPUWindowS float64   `json:"cpu_window_s"`

	Counts     map[string]float64 `json:"counts"`       // per-layer work counters
	HostBusyMs map[string]float64 `json:"host_busy_ms"` // simulated CPU per category
	CPUNs      map[string]int64   `json:"cpu_ns,omitempty"`
	Spans      []span             `json:"spans"`
}

// span is one timed phase of a repetition, in host nanoseconds since
// the repetition's process started.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func newRep(batch int, traced bool) *rep {
	return &rep{
		out: repOut{
			Batch: batch, Traced: traced,
			Counts: map[string]float64{}, HostBusyMs: map[string]float64{},
		},
		origin:      time.Now(),
		profiling:   traced,
		goroutines0: runtime.NumGoroutine(),
	}
}

// span records the phase that began at start and ends now, and
// returns its host seconds.
func (r *rep) span(name string, start time.Time) float64 {
	end := time.Now()
	r.out.Spans = append(r.out.Spans, span{Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	return end.Sub(start).Seconds()
}

// problem records a failed output check.
func (r *rep) problem(format string, args ...any) {
	r.out.Problems = append(r.out.Problems, fmt.Sprintf(format, args...))
}

// setupDone marks the end of set-up: it samples the heap the testbed
// holds and the runtime counters the measured phase is charged from.
func (r *rep) setupDone() {
	r.out.HeapAfterSetupMB = heapMB()
	r.alloc0 = totalAlloc()
	r.gcCPU0, r.busyCPU0 = cpuClasses()
}

// startMeasure begins the measured phase (and its CPU profile when
// the repetition is traced).
func (r *rep) startMeasure() error {
	if r.profiling {
		if err := pprof.StartCPUProfile(&r.profile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	r.measureT0 = time.Now()
	return nil
}

// stopMeasure ends the measured phase and records its host time,
// allocation and GC share, and the process's peak RSS so far.
func (r *rep) stopMeasure() error {
	r.out.MeasuredS = r.span("run", r.measureT0)
	if r.profiling {
		pprof.StopCPUProfile()
		cpu, err := attribute(r.profile.Bytes())
		if err != nil {
			return err
		}
		r.out.CPUNs = cpu
	}
	r.out.AllocMB = float64(totalAlloc()-r.alloc0) / (1 << 20)
	gc, busy := cpuClasses()
	if busy > r.busyCPU0 {
		r.out.GCCPUPct = 100 * (gc - r.gcCPU0) / (busy - r.busyCPU0)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.out.PeakRSSMB = peak
	return nil
}

// tornDown records what survives once the workload has dropped every
// testbed: live heap after a full collection and leftover goroutines.
func (r *rep) tornDown() {
	start := time.Now()
	runtime.GC()
	runtime.GC()
	r.span("teardown", start)
	r.out.RetainedHeapMB = heapMB()
	r.out.GoroutinesLeft = runtime.NumGoroutine() - r.goroutines0
}

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuClasses returns the runtime's GC CPU estimate and its non-idle
// CPU total, both in CPU seconds.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
