package nic

import (
	"fmt"
	"sort"

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
// Free lists (frame buffers, delivery records) restore empty: a pool miss and a pool hit produce identical event timelines.

// tupleKey packs a connection tuple into a sortable pair.
func tupleKey(t ether.Tuple) (uint64, uint64) {
	ip := func(a ether.IP) uint64 {
		return uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3])
	}
	return ip(t.SrcIP)<<32 | ip(t.DstIP), uint64(t.SrcPort)<<16 | uint64(t.DstPort)
}

func writeTuple(w *snap.Writer, t ether.Tuple) {
	w.Bytes(t.SrcIP[:])
	w.Bytes(t.DstIP[:])
	w.U16(t.SrcPort)
	w.U16(t.DstPort)
}

func readTuple(r *snap.Reader) ether.Tuple {
	var t ether.Tuple
	copy(t.SrcIP[:], r.Bytes())
	copy(t.DstIP[:], r.Bytes())
	t.SrcPort = r.U16()
	t.DstPort = r.U16()
	return t
}

// SnapSave encodes the device state. Queues iterate in queueList
// (configuration) order, flows in sorted-tuple order.
func (n *NIC) SnapSave(w *snap.Writer) error {
	if l := n.rxQ.Len(); l != 0 {
		return fmt.Errorf("nic: %s: checkpoint with %d frames in the demux queue", n.Name, l)
	}
	if l := n.txFIFO.Len(); l != 0 {
		return fmt.Errorf("nic: %s: checkpoint with %d frames in the transmit FIFO", n.Name, l)
	}
	if n.realInFlight != 0 {
		return fmt.Errorf("nic: %s: checkpoint with %d frames between FIFO and wire", n.Name, n.realInFlight)
	}
	if n.pendingClaimedFrames() != 0 {
		return fmt.Errorf("nic: %s: checkpoint with undrained flow claims", n.Name)
	}
	w.I64(int64(n.wireFree))
	if err := sim.CheckpointBWInto(w, n.txBW); err != nil {
		return fmt.Errorf("nic: %s: %w", n.Name, err)
	}
	w.I64(n.txFrames)
	w.I64(n.rxFrames)
	w.I64(n.txPayload)
	w.I64(n.rxPayload)
	w.I64(n.drops)
	w.I64(n.rxErrors)
	w.I64(n.txReplays)
	w.I64(n.bdRefetches)
	w.I64(n.segFrames)
	w.U32(uint32(len(n.steering))) // setup-determined; verified at load

	tuples := make([]ether.Tuple, 0, len(n.flows))
	for t := range n.flows {
		tuples = append(tuples, t)
	}
	sort.Slice(tuples, func(i, j int) bool {
		a1, a2 := tupleKey(tuples[i])
		b1, b2 := tupleKey(tuples[j])
		if a1 != b1 {
			return a1 < b1
		}
		return a2 < b2
	})
	w.U32(uint32(len(tuples)))
	for _, t := range tuples {
		writeTuple(w, t)
		phase, runs := n.flows[t].CheckpointFlow()
		w.Int(int(phase))
		w.Int(runs)
	}

	qids := sim.SortedKeys(n.RxPerQueue)
	w.U32(uint32(len(qids)))
	for _, qid := range qids {
		w.U16(qid)
		w.I64(n.RxPerQueue[qid])
	}

	w.U32(uint32(len(n.queueList)))
	for _, q := range n.queueList {
		if err := n.saveQueue(w, q); err != nil {
			return err
		}
	}
	return nil
}

func (n *NIC) saveQueue(w *snap.Writer, q *nicQueue) error {
	qid := q.cfg.QID
	if q.sendHead != q.sendTail || q.sendFetched != q.sendTail {
		return fmt.Errorf("nic: %s q%d: checkpoint with unconsumed send BDs (tail=%d head=%d fetched=%d)",
			n.Name, qid, q.sendTail, q.sendHead, q.sendFetched)
	}
	if q.sbdHead != len(q.sbdCache) {
		return fmt.Errorf("nic: %s q%d: checkpoint with %d cached send BDs", n.Name, qid, len(q.sbdCache)-q.sbdHead)
	}
	if len(q.cplBuf) != 0 || q.cplFirst != q.recvCplN || q.cplIssued != q.recvCplN {
		return fmt.Errorf("nic: %s q%d: checkpoint with unflushed completions (buf=%d first=%d issued=%d cplN=%d)",
			n.Name, qid, len(q.cplBuf), q.cplFirst, q.cplIssued, q.recvCplN)
	}
	if l := q.rxFIFO.Len(); l != 0 {
		return fmt.Errorf("nic: %s q%d: checkpoint with %d staged receive frames", n.Name, qid, l)
	}
	if l := q.rxPend.Len(); l != 0 {
		return fmt.Errorf("nic: %s q%d: checkpoint with %d in-flight receive DMAs", n.Name, qid, l)
	}
	if q.irqQueued {
		return fmt.Errorf("nic: %s q%d: checkpoint with a queued interrupt check", n.Name, qid)
	}
	w.U16(qid)
	w.U64(q.sendTail)
	w.U64(q.recvTail)
	w.U64(q.recvHead)
	w.U64(q.recvCplN)
	w.Bool(q.armed)
	w.U64(q.sendAck)
	w.U64(q.recvAck)
	// Prefetched-but-unconsumed receive descriptors: posted buffers the
	// device already pulled out of the ring, waiting for traffic.
	bds := q.bdCache[q.bdHead:]
	w.U32(uint32(len(bds)))
	for _, bd := range bds {
		w.U64(uint64(bd.Addr))
		w.U32(bd.Len)
	}
	// DMA tag-slot free order: which staging slot a future frame gets.
	slots := sim.CheckpointQueue(q.rxSlots)
	w.U32(uint32(len(slots)))
	for _, s := range slots {
		w.U64(uint64(s))
	}
	return nil
}

// SnapLoad overlays the captured state onto a freshly built NIC with
// the identical queue configuration.
func (n *NIC) SnapLoad(r *snap.Reader) error {
	n.wireFree = sim.Time(r.I64())
	if err := sim.RestoreBWFrom(r, n.txBW); err != nil {
		return fmt.Errorf("nic: %s: %w", n.Name, err)
	}
	n.txFrames = r.I64()
	n.rxFrames = r.I64()
	n.txPayload = r.I64()
	n.rxPayload = r.I64()
	n.drops = r.I64()
	n.rxErrors = r.I64()
	n.txReplays = r.I64()
	n.bdRefetches = r.I64()
	n.segFrames = r.I64()
	nSteer := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nSteer != len(n.steering) {
		return fmt.Errorf("nic: %s: snapshot has %d steering rules, device has %d (configuration mismatch)",
			n.Name, nSteer, len(n.steering))
	}

	nFlows := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	n.flows = make(map[ether.Tuple]*ether.FlowState, nFlows)
	for i := 0; i < nFlows; i++ {
		t := readTuple(r)
		phase := ether.FlowPhase(r.Int())
		runs := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		st := &ether.FlowState{}
		st.RestoreFlow(phase, runs)
		n.flows[t] = st
	}

	nRx := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	n.RxPerQueue = make(map[uint16]int64, nRx)
	for i := 0; i < nRx; i++ {
		qid := r.U16()
		n.RxPerQueue[qid] = r.I64()
	}

	nq := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nq != len(n.queueList) {
		return fmt.Errorf("nic: %s: snapshot has %d queues, device has %d", n.Name, nq, len(n.queueList))
	}
	for _, q := range n.queueList {
		if err := n.loadQueue(r, q); err != nil {
			return err
		}
	}
	return r.Err()
}

func (n *NIC) loadQueue(r *snap.Reader, q *nicQueue) error {
	qid := r.U16()
	if err := r.Err(); err != nil {
		return err
	}
	if qid != q.cfg.QID {
		return fmt.Errorf("nic: %s: snapshot queue %d, device queue %d", n.Name, qid, q.cfg.QID)
	}
	q.sendTail = r.U64()
	q.sendHead, q.sendFetched = q.sendTail, q.sendTail
	q.recvTail = r.U64()
	q.recvHead = r.U64()
	q.recvCplN = r.U64()
	q.cplFirst, q.cplIssued = q.recvCplN, q.recvCplN
	q.armed = r.Bool()
	q.sendAck = r.U64()
	q.recvAck = r.U64()
	nbd := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	q.bdCache = q.bdCache[:0]
	q.bdHead = 0
	for i := 0; i < nbd; i++ {
		q.bdCache = append(q.bdCache, RecvBD{Addr: mem.Addr(r.U64()), Len: r.U32()})
	}
	ns := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	slots := make([]mem.Addr, ns)
	for i := range slots {
		slots[i] = mem.Addr(r.U64())
	}
	if err := sim.RestoreQueue(q.rxSlots, slots); err != nil {
		return err
	}
	return r.Err()
}

// SnapSave encodes the submitter-side transmit ring cursor.
func (r *SendRing) SnapSave(w *snap.Writer) error {
	w.U64(r.tail)
	return nil
}

// SnapLoad overlays the captured cursor.
func (r *SendRing) SnapLoad(rd *snap.Reader) error {
	r.tail = rd.U64()
	return rd.Err()
}

// SnapSave encodes the submitter-side receive ring state: cursors plus
// the BD-index → buffer-address slot table future completions resolve
// through.
func (r *RecvRing) SnapSave(w *snap.Writer) error {
	w.U64(r.tail)
	w.U64(r.cplHead)
	w.U32(uint32(len(r.addrs)))
	for _, a := range r.addrs {
		w.U64(uint64(a))
	}
	return nil
}

// SnapLoad overlays the captured ring state.
func (r *RecvRing) SnapLoad(rd *snap.Reader) error {
	r.tail = rd.U64()
	r.cplHead = rd.U64()
	n := int(rd.U32())
	if err := rd.Err(); err != nil {
		return err
	}
	if n != len(r.addrs) {
		return fmt.Errorf("nic: snapshot recv ring has %d slots, ring has %d", n, len(r.addrs))
	}
	for i := range r.addrs {
		r.addrs[i] = mem.Addr(rd.U64())
	}
	return rd.Err()
}
