package main

import (
	"fmt"
	"time"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// warmfork-grid: a DCS-ctrl Swift cluster warms once for 24 ms with a
// fixed seed, is checkpointed, and the checkpoint is forked into
// warmForkCells cells. Each cell is a freshly built cluster restored
// with RestoreTrusted that runs a 2 ms measured window under its own
// seed. Building the clusters is set-up; warming, the checkpoint and
// the cells are the measured phase, and a cell is one operation. The
// simulated metrics describe the forked cells, the grid's results:
// their requests' latency, the server NIC's payload bytes per
// simulated second from restore to quiescence, and server CPU over
// their windows. When asked to verify, the batch afterwards runs every
// cell straight through (warm + window on one cluster) and requires
// the forked fingerprint to match.
const (
	warmForkBatches = 8
	warmForkCells   = 4
	warmWindow      = 24 * sim.Millisecond
	cellWindow      = 2 * sim.Millisecond
)

// warmSeed drives the shared warm phase, as in the repository's grid:
// it is the same for every cell and every benchmark seed, so the
// checkpoint is too.
const warmSeed = 7

// goldenCheckpointHash is the content hash of the warm checkpoint, the
// one the repository's golden checkpoint artifact is named after.
const goldenCheckpointHash = "b01e42fc70384737"

// cellSeed is cell i of batch b's workload seed; seed 0, batch 0 gives
// cells 1..warmForkCells, the repository's default grid seeds.
func cellSeed(seed uint64, batch, i int) uint64 {
	return (seed*warmForkBatches+uint64(batch))*warmForkCells + uint64(i) + 1
}

// gridCell is one settled cluster with a prepared Swift session.
type gridCell struct {
	env  *sim.Env
	cl   *core.Cluster
	sess *apps.SwiftSession
}

// newCell builds a cluster for the grid, stages the Swift session and
// settles it. With a repetition to charge, the two halves count as its
// build and stage set-up time.
func newCell(r *rep) (gridCell, error) {
	var c gridCell
	start := time.Now()
	c.env = sim.NewEnv()
	c.cl = core.NewCluster(c.env, core.DCSCtrl, core.DefaultParams())
	if r != nil {
		r.out.BuildS += r.span("build", start)
	}
	start = time.Now()
	cfg := apps.DefaultSwiftConfig()
	cfg.Warmup = 0 // phases measure from their own start
	cfg.Duration = cellWindow
	sess, err := apps.PrepareSwift(c.env, c.cl, cfg)
	if err != nil {
		return c, err
	}
	c.sess = sess
	c.env.Run(-1)
	if r != nil {
		r.out.StageS += r.span("stage", start)
	}
	return c, nil
}

func runWarmFork(r *rep, seed uint64, verify bool) error {
	// Set-up: the warm cluster and one cluster per cell.
	cells := make([]gridCell, warmForkCells+1)
	for i := range cells {
		c, err := newCell(r)
		if err != nil {
			return err
		}
		cells[i] = c
	}
	r.setupDone()

	if err := r.startMeasure(); err != nil {
		return err
	}
	o := &r.out
	warm := cells[0]
	before := clusterCounters(warm.env, warm.cl)
	if _, err := warm.sess.RunPhaseSeed(0, warmWindow, warmSeed); err != nil {
		return err
	}
	start := time.Now()
	ckpt, err := warm.cl.Snapshot()
	if err != nil {
		return err
	}
	o.SaveS = r.span("snapshot", start)
	addDelta(o.Counts, before, clusterCounters(warm.env, warm.cl))

	forked := make([]string, warmForkCells)
	results := make([]apps.SwiftResult, warmForkCells)
	for i, c := range cells[1:] {
		start = time.Now()
		if err := c.cl.RestoreTrusted(ckpt); err != nil {
			return fmt.Errorf("restore cell %d: %w", i, err)
		}
		o.RestoreS += r.span("restore", start)
		before, t0 := clusterCounters(c.env, c.cl), c.env.Now()
		c.sess.SetPhase(1) // the warm phase ran in the checkpointed cluster
		if results[i], err = c.sess.RunPhaseSeed(0, cellWindow, cellSeed(seed, o.Batch, i)); err != nil {
			return err
		}
		after := clusterCounters(c.env, c.cl)
		addDelta(o.Counts, before, after)
		o.SimBytes += int64(after["server_nic_payload"] - before["server_nic_payload"])
		o.SimSeconds += (c.env.Now() - t0).Seconds()
		forked[i] = swiftFingerprint(c.env, results[i])
	}
	if err := r.stopMeasure(); err != nil {
		return err
	}

	o.RestoreS /= warmForkCells
	o.ImageMB = float64(len(ckpt)) / (1 << 20)
	if h := snap.ContentHash(ckpt); h != goldenCheckpointHash {
		r.problem("warmfork: checkpoint hash %s, golden %s", h, goldenCheckpointHash)
	}
	for _, res := range results {
		o.Attempted++
		if poolSwift(r, res) {
			o.Ops++
		} else {
			o.Failed++
		}
	}
	checkPin(r, "warmfork-grid", seed, o.Batch, snap.ContentHash([]byte(fmt.Sprint(forked))))
	r.tornDown()

	if verify {
		start = time.Now()
		for i := range forked {
			straight, err := straightCell(seed, o.Batch, i)
			if err != nil {
				return err
			}
			if straight != forked[i] {
				o.Failed++
				r.problem("warmfork: cell %d forked %s, straight-through %s", i, forked[i], straight)
			}
		}
		o.VerifyS = r.span("verify", start)
	}
	return nil
}

// straightCell runs cell i without a checkpoint: the warm phase and the
// cell's window back to back on one cluster.
func straightCell(seed uint64, batch, i int) (string, error) {
	c, err := newCell(nil)
	if err != nil {
		return "", err
	}
	if _, err := c.sess.RunPhaseSeed(0, warmWindow, warmSeed); err != nil {
		return "", err
	}
	res, err := c.sess.RunPhaseSeed(0, cellWindow, cellSeed(seed, batch, i))
	if err != nil {
		return "", err
	}
	return swiftFingerprint(c.env, res), nil
}
