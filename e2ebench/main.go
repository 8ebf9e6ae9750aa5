// Command e2ebench is the simulator's end-to-end benchmark. One run
// measures one workload:
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It runs the workload's batches, each repetition in a fresh child
// process of this binary, until every batch has run and --seconds have
// passed. It checks the simulated outputs and prints, as its last line,
// one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). It exits non-zero when any check
// fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runBudget bounds a whole run, child processes included; no
// repetition starts that would be expected to end past it.
const runBudget = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: swift-dcs, rack-alltoall or warmfork-grid")
	seed := flag.Uint64("seed", 0, "workload seed; seed 0 is checked against pinned fingerprints")
	seconds := flag.Int("seconds", 10, "keep repeating batches until this many seconds have passed")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from profiled repetitions")
	batch := flag.Int("rep", -1, "internal: run one repetition of this batch and print it as JSON")
	traced := flag.Bool("traced", false, "internal: profile the repetition's measured phase")
	verify := flag.Bool("verify", false, "internal: run the repetition's reference checks")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *batch >= 0 {
		if err := child(w, *seed, *batch, *traced, *verify); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s batch %d: %v\n", w.name, *batch, err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := parent(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

// child runs one repetition and writes its measurements to stdout.
func child(w workloadSpec, seed uint64, batch int, traced, verify bool) error {
	if batch >= w.batches {
		return fmt.Errorf("no batch %d", batch)
	}
	r := newRep(batch, traced)
	if err := w.run(r, seed, verify); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r.out)
}

// parent runs repetitions in child processes, one at a time, and
// prints the run's result. A traced run alternates untraced and
// profiled repetitions of each batch, so the profile's overhead is
// measured against the same inputs.
func parent(w workloadSpec, seed uint64, seconds time.Duration, traced bool) error {
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runBudget))
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	perBatch := 1
	if traced {
		perBatch = 2
	}
	minReps := w.batches * perBatch
	var reps []repOut
	var longest time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= minReps && (elapsed >= seconds || elapsed+longest > runBudget) {
			break
		}
		batch := (i / perBatch) % w.batches
		profiled := traced && i%perBatch == 1
		verify := i < minReps && !profiled // a batch's first repetition runs its reference checks
		repStart := time.Now()
		out, err := runChild(ctx, exe, w, seed, batch, profiled, verify)
		if err != nil {
			return err
		}
		if d := time.Since(repStart); d > longest {
			longest = d
		}
		reps = append(reps, out)
	}

	s := summarize(reps, w.batches)
	if w.tailRule {
		if n := len(s.latencies()); !tailMeasured(n, 99) {
			s.problems = append(s.problems, fmt.Sprintf("%d latency samples leave %d beyond p99, need %d", n, beyond(n, 99), minTail))
		}
	}
	var res runResult
	if traced {
		res = s.result(perLayer, s.perLayerValues())
		if err := writeSpans(w.name, seed, reps); err != nil {
			return err
		}
	} else {
		res = s.result(endToEnd, s.endToEndValues())
	}
	report(w, s, res, len(reps), time.Since(start))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runChild runs one repetition in a child process and decodes its
// report. The child's stderr passes through.
func runChild(ctx context.Context, exe string, w workloadSpec, seed uint64, batch int, traced, verify bool) (repOut, error) {
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-rep", strconv.Itoa(batch),
		"-traced="+strconv.FormatBool(traced), "-verify="+strconv.FormatBool(verify))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return repOut{}, fmt.Errorf("%s batch %d: %w", w.name, batch, err)
	}
	var out repOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return repOut{}, fmt.Errorf("%s batch %d: bad report: %w", w.name, batch, err)
	}
	return out, nil
}

// report prints every metric with its unit, and every failed check, to
// stderr for a human reader.
func report(w workloadSpec, s summary, res runResult, reps int, took time.Duration) {
	list := endToEnd
	if len(s.traced) > 0 {
		list = perLayer
	}
	fmt.Fprintf(os.Stderr, "%s: %d repetitions (%d batches) in %.1fs, %d latency samples\n",
		w.name, reps, w.batches, took.Seconds(), len(s.latencies()))
	for i, r := range append(append([]repOut(nil), s.untraced...), s.traced...) {
		fmt.Fprintf(os.Stderr, "  rep %d batch %d traced=%v: %d ops in %.3fs (%.2f/s), setup %.3fs, peak rss %.0f MB\n",
			i, r.Batch, r.Traced, r.Ops, r.MeasuredS, opsPerSec(r), r.BuildS+r.StageS, r.PeakRSSMB)
	}
	for _, m := range list {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	for _, p := range s.problems {
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", p)
	}
}

// writeSpans writes every repetition's spans, kept in memory until the
// run ends, as JSON under .bench_build/ in the working directory.
func writeSpans(workload string, seed uint64, reps []repOut) error {
	type repSpans struct {
		Rep    int    `json:"rep"`
		Batch  int    `json:"batch"`
		Traced bool   `json:"traced"`
		Spans  []span `json:"spans"`
	}
	all := make([]repSpans, len(reps))
	for i, r := range reps {
		all[i] = repSpans{Rep: i, Batch: r.Batch, Traced: r.Traced, Spans: r.Spans}
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "e2ebench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return nil
}
