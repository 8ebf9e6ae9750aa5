package pcie

import (
	"fmt"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent fabric has every
// posted write delivered (postedClock at or behind now), no MSI in
// flight, and no DMA in any stage, so the state reduces to the byte
// counters and bandwidth-server accounting. The image keeps one zero
// word per retired analytic clock (the switch-core clock, the charge
// horizon, and each port's up/down link clock) so the codec version
// and existing checkpoints stay valid; SnapLoad rejects a nonzero
// value there. The object free lists (recycled signals, posted-write
// records) restore empty: they trade allocations, not schedule. The
// async-DMA worker pool is different — a parked worker woken by a
// queue Put can chain-wake further parked workers (spurious
// re-parking dispatches that a fresh Spawn never causes) — so the
// snapshot records the pool population and the restore path primes
// that many parked workers (PrimeAsyncPool), keeping the dispatch
// count byte-identical to the checkpointed process.

// SnapSave encodes the fabric state. Ports iterate in slice (ID)
// order, which is the deterministic construction order.
func (f *Fabric) SnapSave(w *snap.Writer) error {
	if f.postedClock > f.env.Now() {
		return fmt.Errorf("pcie: checkpoint with a posted write in flight (clock %v > now %v)", f.postedClock, f.env.Now())
	}
	w.I64(int64(f.postedClock))
	w.I64(0) // retired switch-core clock
	w.I64(0) // retired charge horizon
	w.I64(f.p2pBytes)
	w.I64(f.hostBytes)
	w.Int(f.asyncIdle)
	if err := sim.CheckpointBWInto(w, f.core); err != nil {
		return err
	}
	w.U32(uint32(len(f.ports)))
	for _, p := range f.ports {
		w.Str(p.Name)
		w.I64(0) // retired up-link clock
		w.I64(0) // retired down-link clock
		w.I64(p.bytesIn)
		w.I64(p.bytesOut)
		if err := sim.CheckpointBWInto(w, p.up); err != nil {
			return fmt.Errorf("pcie: port %s: %w", p.Name, err)
		}
		if err := sim.CheckpointBWInto(w, p.down); err != nil {
			return fmt.Errorf("pcie: port %s: %w", p.Name, err)
		}
	}
	return nil
}

// SnapLoad overlays the captured state onto a freshly built fabric
// with the identical port layout.
func (f *Fabric) SnapLoad(r *snap.Reader) error {
	f.postedClock = sim.Time(r.I64())
	if err := retiredClock(r, "switch-core clock"); err != nil {
		return err
	}
	if err := retiredClock(r, "charge horizon"); err != nil {
		return err
	}
	f.p2pBytes = r.I64()
	f.hostBytes = r.I64()
	idle := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	f.PrimeAsyncPool(idle)
	if err := sim.RestoreBWFrom(r, f.core); err != nil {
		return err
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(f.ports) {
		return fmt.Errorf("pcie: snapshot has %d ports, fabric has %d", n, len(f.ports))
	}
	for _, p := range f.ports {
		name := r.Str()
		if err := r.Err(); err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("pcie: snapshot port %q, fabric port %q (configuration mismatch)", name, p.Name)
		}
		if err := retiredClock(r, "up-link clock"); err != nil {
			return fmt.Errorf("pcie: port %s: %w", p.Name, err)
		}
		if err := retiredClock(r, "down-link clock"); err != nil {
			return fmt.Errorf("pcie: port %s: %w", p.Name, err)
		}
		p.bytesIn = r.I64()
		p.bytesOut = r.I64()
		if err := sim.RestoreBWFrom(r, p.up); err != nil {
			return err
		}
		if err := sim.RestoreBWFrom(r, p.down); err != nil {
			return err
		}
	}
	return r.Err()
}

// retiredClock reads one retired analytic-clock word, which every
// image written by this codec holds as zero.
func retiredClock(r *snap.Reader, what string) error {
	if v := r.I64(); v != 0 {
		return fmt.Errorf("pcie: snapshot holds %d in the retired %s (want 0)", v, what)
	}
	return r.Err()
}
