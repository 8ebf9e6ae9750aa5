package main

import (
	"time"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
)

// swift-dcs: the Figure-12a Swift object server. A DCS-ctrl server and
// an SW-opt client run 8 closed-loop connection pairs (400 µs mean
// Poisson think time, 67% GET, Dropbox object sizes, MD5 on the HDC
// engine). Each batch measures 400 ms of simulated time after a 2 ms
// warm-up, about 1.1k requests.
const (
	swiftBatches = 5
	swiftWindow  = 400 * sim.Millisecond
)

// swiftSeed is batch b's workload seed; seed 0, batch 0 is the
// repository's default Swift configuration (seed 1).
func swiftSeed(seed uint64, batch int) uint64 {
	return seed*swiftBatches + uint64(batch) + 1
}

func runSwift(r *rep, seed uint64, _ bool) error {
	cfg := apps.DefaultSwiftConfig()
	cfg.Seed = swiftSeed(seed, r.out.Batch)
	cfg.Duration = swiftWindow

	start := time.Now()
	env := sim.NewEnv()
	cl := core.NewCluster(env, core.DCSCtrl, core.DefaultParams())
	r.out.BuildS = r.span("build", start)

	start = time.Now()
	sess, err := apps.PrepareSwift(env, cl, cfg)
	if err != nil {
		return err
	}
	env.Run(-1) // settle set-up events before the first measured one
	r.out.StageS = r.span("stage", start)
	r.setupDone()

	before := clusterCounters(env, cl)
	if err := r.startMeasure(); err != nil {
		return err
	}
	res, err := sess.RunPhase(cfg.Warmup, cfg.Duration)
	if err != nil {
		return err
	}
	if err := r.stopMeasure(); err != nil {
		return err
	}
	addDelta(r.out.Counts, before, clusterCounters(env, cl))

	start = time.Now()
	poolSwift(r, res)
	o := &r.out
	o.Ops, o.Attempted, o.Failed = res.Requests, res.Requests, res.Errors
	o.SimBytes, o.SimSeconds = res.Bytes, res.Elapsed.Seconds()
	checkPin(r, "swift-dcs", seed, r.out.Batch, swiftFingerprint(env, res))
	r.out.VerifyS = r.span("verify", start)
	r.tornDown()
	return nil
}
