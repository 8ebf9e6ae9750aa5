package nvme

import (
	"fmt"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent SSD has no command
// in any stage: every SQE fetched (sqHead == dbTail), no completion
// pending a CQ slot, every CQE consumed and the CQ head doorbell
// delivered (cqHeadSee == cqTail). What remains is ring positions and
// phase bits, flash content, the staging slot free list (order is
// schedule state: which slot a future command gets decides DMA
// extents), bandwidth/execution accounting, and counters. The exec
// worker pool population is schedule state too: a Put into a pool
// with parked workers can chain-wake them (spurious re-parking
// dispatches a fresh Spawn never causes), so the snapshot records the
// idle-worker count and the restore path primes that many parked
// workers (PrimeExecPool).

// SnapSizeHint bounds the size Snap saves: the flash image plus a
// margin for rings and counters.
func (s *SSD) SnapSizeHint() int { return len(s.flash)*(12+BlockSize) + 4096 }

// Snap codes the device state. Flash blocks and QPs iterate in sorted
// key order so encode order never leaks map iteration order.
func (s *SSD) Snap(c *snap.Codec) error {
	c.Grow(s.SnapSizeHint())
	if err := sim.SnapQueue(c, s.slotQ, snap.Word[mem.Addr]); err != nil {
		return err
	}
	if err := snap.All(c, s.readBW, s.writeBW, s.exec); err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	c.I64(&s.cmdsDone)
	c.I64(&s.bytesRd)
	c.I64(&s.bytesWr)
	idle := s.execIdle
	c.Int(&idle)
	if c.Loading() && c.Err() == nil {
		s.PrimeExecPool(idle)
	}
	// Restored blocks alias the checkpoint buffer until first written
	// (the buffer must not change while this SSD lives).
	snap.Map(c, &s.flash, (*snap.Codec).U64, func(c *snap.Codec, b *flashBlock) {
		c.Alias(&b.b)
		b.shared = true
		if len(b.b) != BlockSize {
			c.Fail(fmt.Errorf("nvme: %s: snapshot flash block is %d bytes", s.Name, len(b.b)))
		}
	})
	return snap.Keyed(c, "nvme: "+s.Name+" QPs", s.qps, func(qid uint16, qp *devQP) error {
		if qp.sqHead != qp.dbTail {
			return fmt.Errorf("nvme: %s QP %d: not quiescent: unfetched SQEs (head=%d tail=%d)", s.Name, qid, qp.sqHead, qp.dbTail)
		}
		if len(qp.cplPend) != 0 {
			return fmt.Errorf("nvme: %s QP %d: not quiescent: %d pending completions", s.Name, qid, len(qp.cplPend))
		}
		if qp.kickQueued {
			return fmt.Errorf("nvme: %s QP %d: not quiescent: a doorbell kick queued", s.Name, qid)
		}
		if qp.cqHeadSee != qp.cqTail {
			return fmt.Errorf("nvme: %s QP %d: not quiescent: unconsumed CQEs (seen=%d tail=%d)", s.Name, qid, qp.cqHeadSee, qp.cqTail)
		}
		c.Int(&qp.sqHead)
		c.Int(&qp.cqTail)
		c.Bool(&qp.phase)
		if c.Loading() {
			qp.dbTail, qp.cqHeadSee = qp.sqHead, qp.cqTail
		}
		return nil
	})
}

// Snap codes the submitter-side ring positions. A quiescent submitter
// has no command outstanding.
func (r *Ring) Snap(c *snap.Codec) error {
	if len(r.pending) != 0 {
		return fmt.Errorf("nvme: ring %d: not quiescent: %d outstanding commands", r.cfg.QID, len(r.pending))
	}
	c.Int(&r.sqTail)
	c.Int(&r.cqHead)
	c.Bool(&r.phase)
	c.U16(&r.nextCID)
	return c.Err()
}
