package core

import (
	"fmt"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Cluster checkpoint/restore (DESIGN.md §17). A checkpoint is legal
// only at full quiescence (Env.Quiescent): every in-flight transfer
// delivered, every queue drained, service processes parked. The
// snapshot then reduces to architectural state — kernel counters,
// memory images, device cursors, per-connection stream state — in a
// versioned, length-prefixed, digest-trailed binary format whose
// encode order is fully deterministic (map state goes through the
// codec's sorted-key helpers everywhere). One layout, Cluster.snap,
// runs in save mode for Snapshot and in load mode for Restore.
//
// Restore never rebuilds processes from bytes. The caller constructs
// a fresh cluster from the identical configuration, replays the
// identical setup (Prepare), settles it to quiescence, and then
// Restore overlays the captured state and forces the kernel clock.
// From that instant every future event carries the same (time, seq)
// stamp the straight-through run would produce, so the event
// fingerprint of the forked continuation is byte-identical.

// Snapshot serializes the cluster at a quiescent instant.
func (c *Cluster) Snapshot() ([]byte, error) {
	if !c.Env.Quiescent() {
		return nil, fmt.Errorf("core: snapshot of non-quiescent cluster")
	}
	es, err := c.Env.CheckpointState()
	if err != nil {
		return nil, err
	}
	sc := snap.NewSaver(snap.Header{
		Version: snap.Version,
		Flags:   c.snapFlags(),
		Config:  c.ConfigFingerprint(),
	})
	// Reserve the bulk of the image (memory pages and flash) once, so
	// the buffer is never recopied as sections append.
	hint := 64 << 10
	for _, n := range []*Node{c.Server, c.Client} {
		hint += n.MM.SnapSizeHint()
		for _, ssd := range n.SSDs {
			hint += ssd.SnapSizeHint()
		}
	}
	sc.Grow(hint)
	if err := c.snap(sc, &es); err != nil {
		return nil, err
	}
	return sc.Finish(), nil
}

// Restore overlays a snapshot onto a freshly built, identically
// configured, settled cluster. The caller must have run the same
// setup (file staging, connection opens, workload preparation) that
// preceded the checkpointed run's warm phase.
func (c *Cluster) Restore(data []byte) error { return c.restore(data, true) }

// RestoreTrusted is Restore without the envelope digest check, for
// snapshots that never left this process (see snap.OpenTrusted).
func (c *Cluster) RestoreTrusted(data []byte) error { return c.restore(data, false) }

func (c *Cluster) restore(data []byte, verify bool) error {
	if !c.Env.Quiescent() {
		return fmt.Errorf("core: restore into non-quiescent cluster")
	}
	open := snap.OpenTrusted
	if verify {
		open = snap.Open
	}
	r, h, err := open(data)
	if err != nil {
		return err
	}
	if h.Flags != c.snapFlags() {
		return fmt.Errorf("core: snapshot flags %#x, cluster runs %#x (kernel knobs differ)", h.Flags, c.snapFlags())
	}
	if h.Config != c.ConfigFingerprint() {
		return fmt.Errorf("core: snapshot config %#x, cluster is %#x (configuration differs)", h.Config, c.ConfigFingerprint())
	}
	var es sim.EnvState
	if err := c.snap(snap.NewLoader(r), &es); err != nil {
		return err
	}
	// The overlays prime worker pools (SSD exec, async DMA) by
	// spawning workers that park on their job queues; settle those
	// spawn events now so every pool reaches its checkpointed
	// population. Forcing the kernel counters comes last: it erases
	// the settle dispatches from the clock and counters, and a failed
	// restore leaves the clock untouched.
	c.Env.Run(-1)
	return c.Env.ForceCheckpointState(es)
}

// snap lays out the whole cluster: kernel counters, setup cursors
// (verified), fault-injector streams, then each node.
func (c *Cluster) snap(sc *snap.Codec, es *sim.EnvState) error {
	sc.Section("env", func() error { return es.Snap(sc) })
	sc.Section("cluster", func() error {
		sc.Expect("core: next connection ID (connections opened + 1)", c.nextConn)
		sc.Expect("core: allocated port pairs", c.ports.Allocated())
		return nil
	})
	sc.Section("fault", func() error {
		inj := c.Server.Params.Faults
		sc.Expect("core: fault injection present", inj != nil)
		if inj == nil || sc.Err() != nil {
			return sc.Err()
		}
		return inj.Snap(sc)
	})
	for _, n := range []*Node{c.Server, c.Client} {
		n.snap(sc)
	}
	return sc.Err()
}

// snapFlags encodes the kernel knobs the schedule depends on; a
// snapshot only restores into a cluster running the same knobs.
// FlagHandlerProcs is always set (see its definition).
func (c *Cluster) snapFlags() uint32 {
	f := snap.FlagHandlerProcs
	if c.Env.Fusion() {
		f |= snap.FlagFusion
	}
	if c.Env.WireFidelity() == sim.WireFlow {
		f |= snap.FlagWireFlow
	}
	return f
}

// ConfigFingerprint hashes the structural configuration — everything
// that decides which regions, queues, and devices exist. Two clusters
// with equal fingerprints accept each other's snapshots.
func (c *Cluster) ConfigFingerprint() uint64 {
	prof := "none"
	if c.Server.Params.Faults != nil {
		prof = c.Server.Params.Faults.ProfileUsed().Name
	}
	return snap.HashString(fmt.Sprintf(
		"server=%s|client=%s|ssds=%d|hnq=%d|enq=%d|arena=%d|fault=%s",
		c.Server.Kind, c.Client.Kind,
		c.Server.Params.NumSSDs, c.Server.Params.HostNICQueues,
		c.Server.Params.EngineNICQueues, c.Server.Params.HostArenaBytes, prof))
}

// snap lays out one node, one section per subsystem, in fixed order.
// Section names are prefixed with the node name so server and client
// state can never be transposed.
func (n *Node) snap(c *snap.Codec) error {
	sec := func(s string, fn func() error) { c.Section(n.Name+"."+s, fn) }
	sec("node", func() error { return n.snapNodeState(c) })
	sec("mem", func() error { return n.MM.Snap(c) })
	sec("host", func() error { return n.Host.Snap(c) })
	sec("fs", func() error { return snap.Each(c, "core: filesystems", n.FSs) })
	sec("ssd", func() error { return snap.Each(c, "core: SSDs", n.SSDs) })
	sec("pcie", func() error { return n.Fab.Snap(c) })
	sec("nic", func() error { return n.NIC.Snap(c) })
	sec("rings", func() error {
		if len(n.pendTx) != 0 {
			return fmt.Errorf("core: not quiescent: %d unswept transmit jobs", len(n.pendTx))
		}
		snap.Each(c, "core: NVMe rings", n.nvmeRings)
		snap.All(c, n.sendRing)
		return snap.Each(c, "core: receive rings", n.recvRings)
	})
	sec("gpu", func() error {
		c.Expect("core: GPU present", n.GPU != nil)
		if n.GPU == nil || c.Err() != nil {
			return c.Err()
		}
		return n.GPU.Snap(c)
	})
	sec("hdc", func() error {
		c.Expect("core: engine present", n.Engine != nil)
		if n.Engine == nil || c.Err() != nil {
			return c.Err()
		}
		return snap.All(c, n.Engine, n.Driver)
	})
	return c.Err()
}

// snapNodeState lays out the node-local software state: host-stack
// connections (sequence numbers plus the unconsumed reassembled
// stream), staging-arena cursors, fallback/retry counters, and the
// receive-wake park order (park order is wake order; see
// sim.Cond.WaiterNames).
func (n *Node) snapNodeState(c *snap.Codec) error {
	c.Bool(&n.adopted)
	c.I64(&n.fallbacks)
	c.I64(&n.hostNVMeRetries)
	c.U64(&n.arenaOff)
	c.U64(&n.vramOff)
	c.Expect("core: "+n.Name+" file-placement cursor", n.nextDev)
	c.Expect("core: "+n.Name+" RSS cursor", n.nextRSS)
	snap.Keyed(c, "core: "+n.Name+" host connections", n.conns, func(_ uint64, cn *hostConn) error {
		c.U32(&cn.txSeq)
		c.U32(&cn.rxSeq)
		stream := cn.stream[cn.rd:]
		c.Bytes(&stream)
		if c.Loading() {
			cn.stream, cn.rd = stream, 0
		}
		return nil
	})
	names := n.rxWake.WaiterNames()
	snap.Seq(c, &names, (*snap.Codec).Str)
	if c.Loading() && c.Err() == nil {
		return n.rxWake.ReorderWaiters(names)
	}
	return c.Err()
}
