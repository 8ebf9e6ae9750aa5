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

// SnapSizeHint bounds the size SnapSave encodes: the flash image
// plus a margin for rings and counters.
func (s *SSD) SnapSizeHint() int { return len(s.flash)*(12+BlockSize) + 4096 }

// SnapSave encodes the device state. QPs iterate in sorted-QID order
// so encode order never leaks map iteration order.
func (s *SSD) SnapSave(w *snap.Writer) error {
	slots := sim.CheckpointQueue(s.slotQ)
	w.U32(uint32(len(slots)))
	for _, a := range slots {
		w.U64(uint64(a))
	}
	if err := sim.CheckpointBWInto(w, s.readBW); err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := sim.CheckpointBWInto(w, s.writeBW); err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := sim.CheckpointAccumInto(w, s.exec); err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	w.I64(s.cmdsDone)
	w.I64(s.bytesRd)
	w.I64(s.bytesWr)
	w.Int(s.execIdle)

	lbas := sim.SortedKeys(s.flash)
	w.U32(uint32(len(lbas)))
	w.Grow(s.SnapSizeHint())
	for _, lba := range lbas {
		w.U64(lba)
		w.Bytes(s.flash[lba].b)
	}

	qids := sim.SortedKeys(s.qps)
	w.U32(uint32(len(qids)))
	for _, qid := range qids {
		qp := s.qps[qid]
		if qp.sqHead != qp.dbTail {
			return fmt.Errorf("nvme: checkpoint of %s QP %d with unfetched SQEs (head=%d tail=%d)", s.Name, qid, qp.sqHead, qp.dbTail)
		}
		if len(qp.cplPend) != 0 {
			return fmt.Errorf("nvme: checkpoint of %s QP %d with %d pending completions", s.Name, qid, len(qp.cplPend))
		}
		if qp.kickQueued {
			return fmt.Errorf("nvme: checkpoint of %s QP %d with a queued doorbell kick", s.Name, qid)
		}
		if qp.cqHeadSee != qp.cqTail {
			return fmt.Errorf("nvme: checkpoint of %s QP %d with unconsumed CQEs (seen=%d tail=%d)", s.Name, qid, qp.cqHeadSee, qp.cqTail)
		}
		w.U16(qid)
		w.Int(qp.sqHead)
		w.Int(qp.cqTail)
		w.Bool(qp.phase)
	}
	return nil
}

// SnapLoad overlays the captured state onto a freshly built SSD with
// identical queue-pair configuration.
func (s *SSD) SnapLoad(r *snap.Reader) error {
	nSlots := int(r.U32())
	slots := make([]mem.Addr, nSlots)
	for i := range slots {
		slots[i] = mem.Addr(r.U64())
	}
	if err := r.Err(); err != nil {
		return err
	}
	if err := sim.RestoreQueue(s.slotQ, slots); err != nil {
		return err
	}
	if err := sim.RestoreBWFrom(r, s.readBW); err != nil {
		return err
	}
	if err := sim.RestoreBWFrom(r, s.writeBW); err != nil {
		return err
	}
	if err := sim.RestoreAccumFrom(r, s.exec); err != nil {
		return err
	}
	s.cmdsDone, s.bytesRd, s.bytesWr = r.I64(), r.I64(), r.I64()
	idle := r.Int()

	nBlocks := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	s.PrimeExecPool(idle)
	// Restored blocks alias the checkpoint buffer until first written
	// (the buffer must not change while this SSD lives).
	s.flash = make(map[uint64]flashBlock, nBlocks)
	for i := 0; i < nBlocks; i++ {
		lba := r.U64()
		blk := r.Alias()
		if err := r.Err(); err != nil {
			return err
		}
		if len(blk) != BlockSize {
			return fmt.Errorf("nvme: snapshot block %d is %d bytes", lba, len(blk))
		}
		s.flash[lba] = flashBlock{b: blk, shared: true}
	}

	nQP := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nQP != len(s.qps) {
		return fmt.Errorf("nvme: snapshot has %d QPs, %s has %d", nQP, s.Name, len(s.qps))
	}
	for i := 0; i < nQP; i++ {
		qid := r.U16()
		sqHead, cqTail := r.Int(), r.Int()
		phase := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		qp, ok := s.qps[qid]
		if !ok {
			return fmt.Errorf("nvme: snapshot QP %d absent on %s", qid, s.Name)
		}
		qp.sqHead, qp.dbTail = sqHead, sqHead
		qp.cqTail, qp.cqHeadSee = cqTail, cqTail
		qp.phase = phase
	}
	return r.Err()
}

// SnapSave encodes the submitter-side ring positions. A quiescent
// submitter has no command outstanding.
func (r *Ring) SnapSave(w *snap.Writer) error {
	if len(r.pending) != 0 {
		return fmt.Errorf("nvme: checkpoint of ring %d with %d outstanding commands", r.cfg.QID, len(r.pending))
	}
	w.Int(r.sqTail)
	w.Int(r.cqHead)
	w.Bool(r.phase)
	w.U16(r.nextCID)
	return nil
}

// SnapLoad overlays the captured ring positions.
func (r *Ring) SnapLoad(rd *snap.Reader) error {
	if len(r.pending) != 0 {
		return fmt.Errorf("nvme: restore into ring %d with %d outstanding commands", r.cfg.QID, len(r.pending))
	}
	r.sqTail = rd.Int()
	r.cqHead = rd.Int()
	r.phase = rd.Bool()
	r.nextCID = rd.U16()
	return rd.Err()
}
