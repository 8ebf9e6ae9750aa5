package pcie

import (
	"fmt"

	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent fabric has every
// posted write delivered (postedClock at or behind now), no MSI in
// flight, and no DMA in any stage, so the state reduces to the byte
// counters and bandwidth-server accounting. The image keeps one zero
// word per retired analytic clock (the switch-core clock, the charge
// horizon, and each port's up/down link clock) so the codec version
// and existing checkpoints stay valid; a load rejects a nonzero value
// there. The object free lists (recycled signals, posted-write
// records) restore empty: they trade allocations, not schedule. The
// async-DMA worker pool is different — a parked worker woken by a
// queue Put can chain-wake further parked workers (spurious
// re-parking dispatches that a fresh Spawn never causes) — so the
// snapshot records the pool population and the restore path primes
// that many parked workers (PrimeAsyncPool), keeping the dispatch
// count byte-identical to the checkpointed process.

// Snap codes the fabric state. Ports iterate in slice (ID) order,
// which is the deterministic construction order.
func (f *Fabric) Snap(c *snap.Codec) error {
	if f.postedClock > f.env.Now() {
		return fmt.Errorf("pcie: not quiescent: posted write in flight (clock %v > now %v)", f.postedClock, f.env.Now())
	}
	snap.Word(c, &f.postedClock)
	c.Expect("pcie: retired switch-core clock", int64(0))
	c.Expect("pcie: retired charge horizon", int64(0))
	c.I64(&f.p2pBytes)
	c.I64(&f.hostBytes)
	idle := f.asyncIdle
	c.Int(&idle)
	if c.Loading() && c.Err() == nil {
		f.PrimeAsyncPool(idle)
	}
	if err := f.core.Snap(c); err != nil {
		return err
	}
	return snap.Each(c, "pcie: ports", f.ports)
}

// Snap codes one port: its name (verified), the retired link clocks,
// byte counters, and both link servers' accounting.
func (p *Port) Snap(c *snap.Codec) error {
	c.Expect("pcie: port", p.Name)
	c.Expect("pcie: port "+p.Name+": retired up-link clock", int64(0))
	c.Expect("pcie: port "+p.Name+": retired down-link clock", int64(0))
	c.I64(&p.bytesIn)
	c.I64(&p.bytesOut)
	if err := snap.All(c, p.up, p.down); err != nil {
		return fmt.Errorf("pcie: port %s: %w", p.Name, err)
	}
	return nil
}
