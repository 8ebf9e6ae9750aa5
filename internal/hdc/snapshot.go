package hdc

import (
	"fmt"

	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent engine has parsed
// every doorbelled command (cmdHead == cmdTail), completed and
// retired all of them (submitted/finished empty, scoreboard live 0),
// and its device controllers hold no queued work. What persists is
// the cumulative cursors (command/completion counts drive future
// queue-slot and ring arithmetic), the chunk-pool free orders (which
// DDR3 chunk a future transfer stages through is schedule state),
// per-connection TCP sequence state and buffered receive extents,
// ring cursors, the BRAM header-slot rotation, and counters.
// Setup-determined structure — controller lists, connection
// ownership, NDP streamers, AES keys — is rebuilt by running the
// identical configuration and only verified here.

// Snap codes the engine state. Controllers iterate in attachment
// order, connections in sorted-ID order.
func (e *Engine) Snap(c *snap.Codec) error {
	if e.dead {
		return fmt.Errorf("hdc: %s: checkpoint of a failed engine is unsupported", e.name)
	}
	if e.cmdHead != e.cmdTail {
		return fmt.Errorf("hdc: %s: not quiescent: unparsed commands (head=%d tail=%d)", e.name, e.cmdHead, e.cmdTail)
	}
	if e.kickQueued {
		return fmt.Errorf("hdc: %s: not quiescent: a parser kick queued", e.name)
	}
	if len(e.submitted) != 0 || len(e.finished) != 0 {
		return fmt.Errorf("hdc: %s: not quiescent: %d submitted / %d finished commands in flight",
			e.name, len(e.submitted), len(e.finished))
	}
	if e.sb.live != 0 || len(e.sb.pendDone) != 0 {
		return fmt.Errorf("hdc: %s: not quiescent: %d live / %d retiring scoreboard entries",
			e.name, e.sb.live, len(e.sb.pendDone))
	}
	c.U64(&e.cmdTail)
	if c.Loading() {
		e.cmdHead = e.cmdTail
	}
	c.U64(&e.cplCount)
	c.I64(&e.cmdsDone)
	c.Expect("hdc: "+e.name+" NIC round-robin cursor", e.nextNICRR)
	c.Len("hdc: "+e.name+" connections", len(e.connOwner))
	if err := snap.All(c, e.chunks, e.recvPool); err != nil {
		return fmt.Errorf("hdc: %s: %w", e.name, err)
	}
	c.I64(&e.sb.issued)
	c.I64(&e.sb.done)
	c.Int(&e.sb.maxLive)
	snap.Each(c, "hdc: "+e.name+" NVMe controllers", e.nvmeCtls)
	return snap.Each(c, "hdc: "+e.name+" NIC controllers", e.nicCtls)
}

// Snap codes the controller's PRP cursor, counters, and ring.
func (c *NVMeCtrl) Snap(sc *snap.Codec) error {
	if l := c.reqQ.Len(); l != 0 {
		return fmt.Errorf("hdc: not quiescent: %d queued NVMe requests", l)
	}
	sc.Int(&c.prpNext)
	sc.I64(&c.cmds)
	sc.I64(&c.retries)
	return c.ring.Snap(sc)
}

// Snap codes the controller's header-slot rotation, counters, rings,
// and per-connection state.
func (c *NICCtrl) Snap(sc *snap.Codec) error {
	if l := c.sendQ.Len(); l != 0 {
		return fmt.Errorf("hdc: q%d: not quiescent: %d queued sends", c.qid, l)
	}
	if l := c.recvQ.Len(); l != 0 {
		return fmt.Errorf("hdc: q%d: not quiescent: %d queued receives", c.qid, l)
	}
	if len(c.pendTx) != 0 {
		return fmt.Errorf("hdc: q%d: not quiescent: %d unacknowledged transmits", c.qid, len(c.pendTx))
	}
	sc.Int(&c.hdrNext)
	sc.I64(&c.sendJobs)
	sc.I64(&c.recvPkts)
	sc.I64(&c.gatheredBytes)
	if err := snap.All(sc, c.send, c.recv); err != nil {
		return err
	}
	return snap.Keyed(sc, fmt.Sprintf("hdc: q%d connections", c.qid), c.conns, func(id uint64, cn *conn) error {
		if cn.waiter != nil {
			return fmt.Errorf("hdc: q%d: not quiescent: a receive waiter on connection %d", c.qid, id)
		}
		sc.U32(&cn.txSeq)
		sc.U32(&cn.rxSeq)
		// Buffered, not-yet-consumed receive extents (live chunk data a
		// future RecvFile drains first), in arrival order.
		exts := cn.rxBufs[cn.rxHead:]
		snap.Seq(sc, &exts, func(sc *snap.Codec, x *rxExtent) {
			snap.Word(sc, &x.addr)
			sc.Int(&x.n)
			snap.Word(sc, &x.buf)
		})
		if sc.Loading() {
			cn.rxBufs, cn.rxHead = exts, 0
		}
		sc.Int(&cn.rxALen)
		return nil
	})
}

// Snap codes the driver state. A quiescent driver has every library
// call returned: no command waiting on a completion and no queue slot
// held.
func (d *Driver) Snap(c *snap.Codec) error {
	if d.outstanding != 0 || len(d.waiting) != 0 {
		return fmt.Errorf("hdc: driver not quiescent: %d outstanding commands", d.outstanding)
	}
	c.U32(&d.nextID)
	c.U64(&d.tail)
	c.U64(&d.cplHead)
	c.Bool(&d.failed)
	for _, v := range []*int64{&d.retries, &d.timeouts, &d.orphans} {
		c.I64(v)
	}
	return c.Err()
}
