package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"dcsctrl/internal/core"
	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/shard"
	"dcsctrl/internal/workload"
)

// Rack workloads: deterministic flow sets over the switched fabric,
// executed serially or sharded. The flow set, every payload, and every
// completion time are fully determined by the config — domain count
// and worker count change only wall-clock time, never results — so
// Fingerprint is the cross-decomposition equivalence check.

// Rack traffic patterns.
const (
	RackAllToAll = "alltoall" // every ordered node pair exchanges one flow
	RackIncast   = "incast"   // every node sends to node 0 (barrier-heavy)
)

// RackConfig describes one rack workload cell.
type RackConfig struct {
	Nodes   int    // node count; default 16
	Domains int    // shard count; default 1
	Workers int    // worker goroutines; default = Domains (logical workers: results are identical at any count)
	Pattern string // RackAllToAll (default) or RackIncast
	Bytes   int    // mean flow payload; default 32 KB
	Rounds  int    // flows per (src, dst) pair; default 1
	Seed    uint64 // flow-size/payload seed

	// FaultProfile, with rules, arms per-node fault injectors seeded
	// from FaultSeed (see core.RackParams).
	FaultProfile fault.Profile
	FaultSeed    uint64
}

// withDefaults fills the zero fields.
func (c RackConfig) withDefaults() RackConfig {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Domains <= 0 {
		c.Domains = 1
	}
	if c.Workers <= 0 {
		c.Workers = c.Domains
	}
	if c.Pattern == "" {
		c.Pattern = RackAllToAll
	}
	if c.Bytes <= 0 {
		c.Bytes = 32 << 10
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	return c
}

// rackFlow is one generated flow.
type rackFlow struct {
	src, dst int
	bytes    int
}

// buildRackFlows expands the pattern into the deterministic flow list.
// Sizes are drawn from a per-flow-index PRNG, so the list depends only
// on (pattern, nodes, bytes, rounds, seed) — never on execution order.
func buildRackFlows(cfg RackConfig) []rackFlow {
	var flows []rackFlow
	add := func(src, dst int) {
		idx := uint64(len(flows))
		rnd := workload.NewRand(cfg.Seed ^ (idx+1)*0x9E3779B97F4A7C15)
		size := cfg.Bytes/2 + rnd.Intn(cfg.Bytes)
		if size < 1 {
			size = 1
		}
		flows = append(flows, rackFlow{src: src, dst: dst, bytes: size})
	}
	for round := 0; round < cfg.Rounds; round++ {
		switch cfg.Pattern {
		case RackIncast:
			for src := 1; src < cfg.Nodes; src++ {
				add(src, 0)
			}
		case RackAllToAll:
			for src := 0; src < cfg.Nodes; src++ {
				for dst := 0; dst < cfg.Nodes; dst++ {
					if dst != src {
						add(src, dst)
					}
				}
			}
		default:
			panic(fmt.Sprintf("bench: unknown rack pattern %q", cfg.Pattern))
		}
	}
	return flows
}

// RackResult is one rack run's outcome. FlowDone is index-keyed by
// flow — receivers in different domains write distinct slots, so the
// slice is race-free and its order is decomposition-invariant.
type RackResult struct {
	Config   RackConfig
	Flows    int
	Bytes    int64    // payload bytes across all flows
	Makespan sim.Time // latest flow completion
	FlowDone []sim.Time

	Events      uint64 // kernel events summed across domains
	Frames      int64  // frames delivered by the fabric
	WireBytes   int64  // wire bytes delivered by the fabric
	Drops       int64  // unroutable frames (must be 0)
	ShardStats  shard.Stats
	RxErrors    int64 // checksum-dropped frames (fault runs)
	WallSeconds float64
}

// Fingerprint digests the decomposition-invariant payload of the run:
// per-flow endpoints, sizes, and completion times, plus the makespan.
// Kernel counters (events, fusion) are deliberately excluded — event
// fusion depends on which nodes share an Env, so those counters vary
// across domain counts even though the simulated results do not.
func (r *RackResult) Fingerprint() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.Flows))
	put(uint64(r.Makespan))
	for i, d := range r.FlowDone {
		put(uint64(i))
		put(uint64(d))
	}
	put(uint64(r.Bytes))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RunRack executes one rack workload cell and returns its results.
func RunRack(cfg RackConfig) RackResult {
	cfg = cfg.withDefaults()
	flows := buildRackFlows(cfg)
	r := core.NewRack(core.RackParams{
		Nodes:        cfg.Nodes,
		Domains:      cfg.Domains,
		Workers:      cfg.Workers,
		Kind:         core.SWOpt,
		Spec:         ether.RackSpec{},
		FaultProfile: cfg.FaultProfile,
		FaultSeed:    cfg.FaultSeed,
	})
	defer r.Close()

	conns := make([]core.Conn, len(flows))
	for i, f := range flows {
		conns[i] = r.OpenConn(f.src, f.dst, false)
	}
	done := make([]sim.Time, len(flows))
	var total int64
	for i := range flows {
		f, conn, idx := flows[i], conns[i], i
		total += int64(f.bytes)
		payload := make([]byte, f.bytes)
		prnd := workload.NewRand(cfg.Seed ^ uint64(idx)<<20 ^ 0xA5A5)
		for j := range payload {
			payload[j] = byte(prnd.Uint64())
		}
		r.Nodes[f.src].Env.Spawn(fmt.Sprintf("flow%05d-tx", idx), func(p *sim.Proc) {
			r.NodeSend(p, f.src, conn, payload)
		})
		r.Nodes[f.dst].Env.Spawn(fmt.Sprintf("flow%05d-rx", idx), func(p *sim.Proc) {
			got := r.NodeRecv(p, f.dst, conn, f.bytes)
			if !bytes.Equal(got, payload) {
				j := 0
				for j < len(got) && got[j] == payload[j] {
					j++
				}
				panic(fmt.Sprintf("bench: flow %d byte %d corrupted in transit", idx, j))
			}
			done[idx] = p.Now()
		})
	}
	start := time.Now()
	r.Run(-1)
	res := RackResult{
		Config:      cfg,
		Flows:       len(flows),
		Bytes:       total,
		FlowDone:    done,
		ShardStats:  r.Stats(),
		WallSeconds: time.Since(start).Seconds(),
	}
	for i, d := range done {
		if d == 0 {
			panic(fmt.Sprintf("bench: flow %d (%d->%d) never completed", i, flows[i].src, flows[i].dst))
		}
		if d > res.Makespan {
			res.Makespan = d
		}
	}
	for _, d := range r.Kernel.Domains() {
		res.Events += d.Env().Steps()
	}
	res.Frames, res.WireBytes, res.Drops = r.FabricStats()
	if res.Drops != 0 {
		panic(fmt.Sprintf("bench: %d unroutable frames in a closed rack", res.Drops))
	}
	for _, n := range r.Nodes {
		_, _, _, _, _, rxe := n.NIC.Stats()
		res.RxErrors += rxe
	}
	return res
}

// Render formats the result as a table row block for stdout.
func (r *RackResult) Render() string {
	var b strings.Builder
	st := r.ShardStats
	fmt.Fprintf(&b, "rack %s: %d nodes, %d domains, %d workers\n",
		r.Config.Pattern, r.Config.Nodes, st.Domains, st.Workers)
	fmt.Fprintf(&b, "  flows %d  payload %.1f MB  makespan %v  wall %.2fs\n",
		r.Flows, float64(r.Bytes)/1e6, r.Makespan, r.WallSeconds)
	fmt.Fprintf(&b, "  windows %d  parallel-windows %d  cross-frames %d  events %d\n",
		st.Windows, st.ParWindows, st.CrossFrames, r.Events)
	fmt.Fprintf(&b, "  fabric frames %d  wire %.1f MB  rx-errors %d\n",
		r.Frames, float64(r.WireBytes)/1e6, r.RxErrors)
	fmt.Fprintf(&b, "  fingerprint %s\n", r.Fingerprint())
	return b.String()
}
