package nic

import (
	"cmp"
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent NIC has no frame in
// any stage — demux, queue pipelines, DMA tags, FIFO, and wire are all
// empty, analytic claims all exited. What persists across quiescence
// is the ring bookkeeping (posted receive buffers and their prefetched
// descriptors wait for future traffic), the armed-interrupt state, the
// per-connection flow phase machines, the wire clock, the tag-slot
// free order (which staging slot a future frame gets), and counters.
// Free lists (frame buffers, delivery records) restore empty: a pool
// miss and a pool hit produce identical event timelines.

// tupleOrder sorts connection tuples by (src IP, dst IP, src port,
// dst port).
func tupleOrder(a, b ether.Tuple) int {
	key := func(t ether.Tuple) (uint64, uint64) {
		ip := func(a ether.IP) uint64 {
			return uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3])
		}
		return ip(t.SrcIP)<<32 | ip(t.DstIP), uint64(t.SrcPort)<<16 | uint64(t.DstPort)
	}
	a1, a2 := key(a)
	b1, b2 := key(b)
	return cmp.Or(cmp.Compare(a1, b1), cmp.Compare(a2, b2))
}

// snapTuple codes a connection tuple, each IP as a length-prefixed
// byte string.
func snapTuple(c *snap.Codec, t *ether.Tuple) {
	for _, ip := range []*ether.IP{&t.SrcIP, &t.DstIP} {
		b := ip[:]
		c.Bytes(&b)
		copy(ip[:], b)
	}
	c.U16(&t.SrcPort)
	c.U16(&t.DstPort)
}

// Snap codes the device state. Queues iterate in queueList
// (configuration) order, flows in sorted-tuple order.
func (n *NIC) Snap(c *snap.Codec) error {
	if l := n.rxQ.Len(); l != 0 {
		return fmt.Errorf("nic: %s: not quiescent: %d frames in the demux queue", n.Name, l)
	}
	if l := n.txFIFO.Len(); l != 0 {
		return fmt.Errorf("nic: %s: not quiescent: %d frames in the transmit FIFO", n.Name, l)
	}
	if n.realInFlight != 0 {
		return fmt.Errorf("nic: %s: not quiescent: %d frames between FIFO and wire", n.Name, n.realInFlight)
	}
	if n.pendingClaimedFrames() != 0 {
		return fmt.Errorf("nic: %s: not quiescent: undrained flow claims", n.Name)
	}
	snap.Word(c, &n.wireFree)
	if err := n.txBW.Snap(c); err != nil {
		return fmt.Errorf("nic: %s: %w", n.Name, err)
	}
	for _, v := range []*int64{&n.txFrames, &n.rxFrames, &n.txPayload, &n.rxPayload,
		&n.drops, &n.rxErrors, &n.txReplays, &n.bdRefetches, &n.segFrames} {
		c.I64(v)
	}
	c.Len("nic: "+n.Name+" steering rules", len(n.steering))
	snap.MapFunc(c, &n.flows, tupleOrder, snapTuple, func(c *snap.Codec, st **ether.FlowState) {
		if *st == nil {
			*st = new(ether.FlowState)
		}
		(*st).Snap(c)
	})
	snap.Map(c, &n.RxPerQueue, (*snap.Codec).U16, (*snap.Codec).I64)
	c.Len("nic: "+n.Name+" queues", len(n.queueList))
	for _, q := range n.queueList {
		if err := n.snapQueue(c, q); err != nil {
			return err
		}
	}
	return c.Err()
}

func (n *NIC) snapQueue(c *snap.Codec, q *nicQueue) error {
	qid := q.cfg.QID
	if q.sendHead != q.sendTail || q.sendFetched != q.sendTail {
		return fmt.Errorf("nic: %s q%d: not quiescent: unconsumed send BDs (tail=%d head=%d fetched=%d)",
			n.Name, qid, q.sendTail, q.sendHead, q.sendFetched)
	}
	if q.sbdHead != len(q.sbdCache) {
		return fmt.Errorf("nic: %s q%d: not quiescent: %d cached send BDs", n.Name, qid, len(q.sbdCache)-q.sbdHead)
	}
	if len(q.cplBuf) != 0 || q.cplFirst != q.recvCplN || q.cplIssued != q.recvCplN {
		return fmt.Errorf("nic: %s q%d: not quiescent: unflushed completions (buf=%d first=%d issued=%d cplN=%d)",
			n.Name, qid, len(q.cplBuf), q.cplFirst, q.cplIssued, q.recvCplN)
	}
	if l := q.rxFIFO.Len(); l != 0 {
		return fmt.Errorf("nic: %s q%d: not quiescent: %d staged receive frames", n.Name, qid, l)
	}
	if l := q.rxPend.Len(); l != 0 {
		return fmt.Errorf("nic: %s q%d: not quiescent: %d in-flight receive DMAs", n.Name, qid, l)
	}
	if q.irqQueued {
		return fmt.Errorf("nic: %s q%d: not quiescent: an interrupt check queued", n.Name, qid)
	}
	c.Expect("nic: "+n.Name+" queue", qid)
	for _, v := range []*uint64{&q.sendTail, &q.recvTail, &q.recvHead, &q.recvCplN} {
		c.U64(v)
	}
	c.Bool(&q.armed)
	c.U64(&q.sendAck)
	c.U64(&q.recvAck)
	// Prefetched-but-unconsumed receive descriptors: posted buffers the
	// device already pulled out of the ring, waiting for traffic.
	bds := q.bdCache[q.bdHead:]
	snap.Seq(c, &bds, func(c *snap.Codec, bd *RecvBD) {
		snap.Word(c, &bd.Addr)
		c.U32(&bd.Len)
	})
	if c.Loading() {
		q.sendHead, q.sendFetched = q.sendTail, q.sendTail
		q.cplFirst, q.cplIssued = q.recvCplN, q.recvCplN
		q.bdCache, q.bdHead = bds, 0
	}
	// DMA tag-slot free order: which staging slot a future frame gets.
	return sim.SnapQueue(c, q.rxSlots, snap.Word[mem.Addr])
}

// Snap codes the submitter-side transmit ring cursor.
func (r *SendRing) Snap(c *snap.Codec) error {
	c.U64(&r.tail)
	return c.Err()
}

// Snap codes the submitter-side receive ring state: cursors plus the
// BD-index → buffer-address slot table future completions resolve
// through.
func (r *RecvRing) Snap(c *snap.Codec) error {
	c.U64(&r.tail)
	c.U64(&r.cplHead)
	c.Len("nic: recv ring slots", len(r.addrs))
	for i := range r.addrs {
		snap.Word(c, &r.addrs[i])
	}
	return c.Err()
}
