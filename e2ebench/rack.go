package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"dcsctrl/internal/core"
	"dcsctrl/internal/ether"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/workload"
)

// rack-alltoall: 64 SW-opt nodes on a ToR/spine fabric, one flow of
// 16–48 KB per ordered node pair (4032 flows), run on 4 shard domains
// with at most nproc workers. Payloads are built before Rack.Run and
// every received byte is checked after it, so neither is timed as
// simulation.
const (
	rackNodes   = 64
	rackDomains = 4
	rackBytes   = 32 << 10 // mean flow size
)

// rackFlow is one generated flow.
type rackFlow struct {
	src, dst, bytes int
}

// rackFlows lists the all-to-all flows. Sizes come from a per-flow
// PRNG, exactly as the repository's rack bench draws them, so seed 0
// reproduces its pinned fingerprint.
func rackFlows(seed uint64) []rackFlow {
	var flows []rackFlow
	for src := 0; src < rackNodes; src++ {
		for dst := 0; dst < rackNodes; dst++ {
			if dst == src {
				continue
			}
			rnd := workload.NewRand(seed ^ uint64(len(flows)+1)*0x9E3779B97F4A7C15)
			flows = append(flows, rackFlow{src: src, dst: dst, bytes: rackBytes/2 + rnd.Intn(rackBytes)})
		}
	}
	return flows
}

// rackPayload fills a flow's payload eight bytes at a time.
func rackPayload(seed uint64, idx, n int) []byte {
	b := make([]byte, (n+7)&^7)
	rnd := workload.NewRand(seed ^ uint64(idx)<<20 ^ 0xA5A5)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rnd.Uint64())
	}
	return b[:n]
}

// rackFingerprint digests per-flow completion times, the makespan and
// the payload total, in the same form as the repository's rack bench.
func rackFingerprint(done []sim.Time, makespan sim.Time, total int64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(done)))
	put(uint64(makespan))
	for i, d := range done {
		put(uint64(i))
		put(uint64(d))
	}
	put(uint64(total))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func runRack(r *rep, seed uint64, _ bool) error {
	flows := rackFlows(seed)
	start := time.Now()
	payloads := make([][]byte, len(flows))
	for i, f := range flows {
		payloads[i] = rackPayload(seed, i, f.bytes)
	}
	r.out.PayloadS = r.span("payload", start)

	workers := runtime.NumCPU()
	if workers > rackDomains {
		workers = rackDomains
	}
	start = time.Now()
	rk := core.NewRack(core.RackParams{
		Nodes: rackNodes, Domains: rackDomains, Workers: workers,
		Kind: core.SWOpt, Spec: ether.RackSpec{},
	})
	r.out.BuildS = r.span("build", start)

	// Receivers in different domains write distinct slots of done and
	// got, so the slices need no locking.
	start = time.Now()
	done := make([]sim.Time, len(flows))
	got := make([][]byte, len(flows))
	conns := make([]core.Conn, len(flows))
	for i, f := range flows {
		conns[i] = rk.OpenConn(f.src, f.dst, false)
	}
	for i, f := range flows {
		i, f, conn := i, f, conns[i]
		rk.Nodes[f.src].Env.Spawn(fmt.Sprintf("flow%05d-tx", i), func(p *sim.Proc) {
			rk.NodeSend(p, f.src, conn, payloads[i])
		})
		rk.Nodes[f.dst].Env.Spawn(fmt.Sprintf("flow%05d-rx", i), func(p *sim.Proc) {
			got[i] = rk.NodeRecv(p, f.dst, conn, f.bytes)
			done[i] = p.Now()
		})
	}
	r.out.StageS = r.span("stage", start)
	r.setupDone()

	var envs []*sim.Env
	for _, d := range rk.Kernel.Domains() {
		envs = append(envs, d.Env())
	}
	before := counters(envs, rk.Nodes)
	if err := r.startMeasure(); err != nil {
		return err
	}
	rk.Run(-1)
	if err := r.stopMeasure(); err != nil {
		return err
	}
	addDelta(r.out.Counts, before, counters(envs, rk.Nodes))

	start = time.Now()
	o := &r.out
	var makespan sim.Time
	var total int64
	for i, f := range flows {
		total += int64(f.bytes)
		o.Attempted++
		if done[i] == 0 || !bytes.Equal(got[i], payloads[i]) {
			o.Failed++
			continue
		}
		o.Ops++
		o.LatUs = append(o.LatUs, done[i].Microseconds())
		if done[i] > makespan {
			makespan = done[i]
		}
	}
	if o.Failed > 0 {
		r.problem("rack: %d of %d flows corrupted or incomplete", o.Failed, o.Attempted)
	}
	frames, _, drops := rk.FabricStats()
	if drops != 0 {
		r.problem("rack: %d unroutable frames", drops)
	}
	checkPin(r, "rack-alltoall", seed, 0, rackFingerprint(done, makespan, total))
	o.VerifyS = r.span("verify", start)

	o.SimBytes, o.SimSeconds = total, makespan.Seconds()
	st := rk.Stats()
	o.Counts["shard_windows"] = float64(st.Windows)
	o.Counts["shard_par_windows"] = float64(st.ParWindows)
	o.Counts["shard_cross_frames"] = float64(st.CrossFrames)
	o.Counts["fabric_frames"] = float64(frames)
	o.Counts["flows"] = float64(len(flows))
	var util float64
	for _, n := range rk.Nodes {
		util += n.Host.Utilization()
		for _, cat := range n.Host.Acct.Categories() {
			o.HostBusyMs[string(cat)] += float64(n.Host.Acct.Busy(cat)) / float64(sim.Millisecond)
		}
	}
	o.CPUxS, o.CPUWindowS = util/float64(len(rk.Nodes))*o.SimSeconds, o.SimSeconds
	r.tornDown()
	return nil
}
