package sim

import (
	"fmt"

	"dcsctrl/internal/sim/snap"
)

// Checkpoint support: capture and force the kernel's observable state
// at quiescent instants (DESIGN.md §17).
//
// The event heap itself is never serialized — events hold closures and
// process references, which have no stable byte representation.
// Instead, checkpoints are only legal at full quiescence (Run returned
// with nothing pending; parked service processes are fine, queued
// events are not), where the kernel state reduces to the clock, the
// sequence counter, and the dispatch statistics. Restore rebuilds the
// model from the identical configuration, settles it, overlays the
// device state, and forces these counters — after which every future
// enqueue stamps the same (time, seq) it would have in the
// straight-through run.

// EnvState is the kernel's checkpointable state: everything the
// (time, seq) stamping of future events and the run fingerprint depend
// on. Parks/handoffs/dispatches are deliberately absent — they count
// goroutine mechanics (proc starts vs pool wakes) that legitimately
// differ between a forked and a straight run while the event timeline
// stays byte-identical.
type EnvState struct {
	Now       Time
	Seq       uint64
	Steps     uint64
	Fused     uint64
	IOs       uint64
	Segments  uint64
	SegFrames uint64
}

// Quiescent reports whether the environment is checkpointable: no Run
// in progress and no queued events. Parked processes are allowed —
// service loops (NIC demux, IRQ service, ring pollers) park forever
// between bursts and hold no hidden schedule state while parked.
func (e *Env) Quiescent() bool {
	return !e.running && !e.Pending()
}

// CheckpointState captures the kernel counters. It errors unless the
// environment is quiescent: with events still queued, the heap holds
// schedule state the checkpoint cannot represent.
func (e *Env) CheckpointState() (EnvState, error) {
	if !e.Quiescent() {
		return EnvState{}, fmt.Errorf("sim: checkpoint of non-quiescent env (running=%v pending=%v)", e.running, e.Pending())
	}
	return EnvState{
		Now: e.now, Seq: e.seq, Steps: e.steps,
		Fused: e.fused, IOs: e.ios, Segments: e.segments, SegFrames: e.segFrames,
	}, nil
}

// ForceCheckpointState overlays captured kernel counters onto a
// settled environment, completing a restore. The clock may only move
// forward: snapshots are taken after a warm phase, restores happen on
// a freshly settled environment whose clock is near zero.
func (e *Env) ForceCheckpointState(s EnvState) error {
	if !e.Quiescent() {
		return fmt.Errorf("sim: restore into non-quiescent env (running=%v pending=%v)", e.running, e.Pending())
	}
	if s.Now < e.now {
		return fmt.Errorf("sim: restore would move the clock backwards (%v -> %v)", e.now, s.Now)
	}
	e.now = s.Now
	e.seq = s.Seq
	e.steps = s.Steps
	e.fused = s.Fused
	e.ios = s.IOs
	e.segments = s.Segments
	e.segFrames = s.SegFrames
	return nil
}

// Snap codes the environment's kernel counters (Now, Seq, Steps,
// Fused, IOs, Segments, SegFrames).
func (s *EnvState) Snap(c *snap.Codec) error {
	snap.Word(c, &s.Now)
	for _, v := range []*uint64{&s.Seq, &s.Steps, &s.Fused, &s.IOs, &s.Segments, &s.SegFrames} {
		c.U64(v)
	}
	return c.Err()
}

// Snap codes the resource's busy accounting, so restored runs report
// the same busy fractions a straight run would. Either side errors
// when units are held or waiters are parked: a checkpointable instant
// has no work in flight on the resource.
func (r *Resource) Snap(c *snap.Codec) error {
	if r.inUse != 0 || len(r.waiters) != 0 {
		return fmt.Errorf("sim: resource %q not quiescent: %d units in use, %d waiters", r.name, r.inUse, len(r.waiters))
	}
	snap.Word(c, &r.busy)
	snap.Word(c, &r.lastStamp)
	return c.Err()
}

// Snap codes the server's cumulative accounting.
func (b *BandwidthServer) Snap(c *snap.Codec) error {
	if err := b.res.Snap(c); err != nil {
		return err
	}
	c.I64(&b.bytes)
	c.I64(&b.xfers)
	return c.Err()
}

// WaiterNames returns the names of the processes currently enrolled on
// the condition, in park order. Park order is wake order: Broadcast
// wakes waiters front to back, and at a same-instant wake the enqueue
// order decides which predicate re-check runs first. A checkpoint of a
// condition with several parked service processes must therefore
// record the order so a restore can reproduce it.
func (c *Cond) WaiterNames() []string {
	names := make([]string, len(c.waiters))
	for i, w := range c.waiters {
		names[i] = w.name
	}
	return names
}

// ReorderWaiters permutes the condition's parked waiters to match the
// given name order. The name multiset must match the enrolled waiters
// exactly; names must be unique (service-loop names are).
func (c *Cond) ReorderWaiters(names []string) error {
	if len(names) != len(c.waiters) {
		return fmt.Errorf("sim: cond has %d waiters, restore order lists %d", len(c.waiters), len(names))
	}
	byName := make(map[string]*Proc, len(c.waiters))
	for _, w := range c.waiters {
		if byName[w.name] != nil {
			return fmt.Errorf("sim: duplicate cond waiter name %q", w.name)
		}
		byName[w.name] = w
	}
	ordered := make([]*Proc, len(names))
	for i, n := range names {
		p := byName[n]
		if p == nil {
			return fmt.Errorf("sim: cond waiter %q absent at restore", n)
		}
		ordered[i] = p
		delete(byName, n)
	}
	copy(c.waiters, ordered)
	return nil
}

// SnapQueue codes the queue's live items in FIFO order. Order is
// state: a restored queue must hand out items in the exact sequence
// the straight run would. A non-empty restore into a queue with parked
// waiters is inconsistent state — a Put would have woken one — and
// errors.
func SnapQueue[T any](c *snap.Codec, q *Queue[T], elem func(*snap.Codec, *T)) error {
	items := q.items[q.itemHead:]
	snap.Seq(c, &items, elem)
	if !c.Loading() || c.Err() != nil {
		return c.Err()
	}
	if len(items) > 0 && q.waitHead < len(q.waiters) {
		return fmt.Errorf("sim: restore of %d items into queue %q with waiters", len(items), q.name)
	}
	clear(q.items[min(q.itemHead+len(items), len(q.items)):]) // stale tail
	q.items, q.itemHead = items, 0
	q.maxLen = max(q.maxLen, len(items))
	return nil
}
