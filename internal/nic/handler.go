package nic

// The NIC's demux and receive-completion stages, written as
// run-to-completion handler procs (DESIGN.md §16): each is a state
// machine that runs inline on the dispatcher and re-arms instead of
// parking. Occupancy is charged with Rearm, waits use the *H
// primitives, and the completion flush is a pcie.XferVec.

import (
	"dcsctrl/internal/ether"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// rxDemuxState enumerates where the demux machine resumes.
type rxDemuxState int

const (
	rxsGet   rxDemuxState = iota // fetch the next arrival burst
	rxsDemux                     // demux occupancy elapsed; steer frames
	rxsStall                     // a queue FIFO is full; waiting for space
)

// rxDemuxMachine is the shared demux stage: verify, parse, steer.
// It takes same-instant arrivals as one burst, charges one demux
// occupancy for the whole burst (interrupt-coalescing analogue: the
// per-frame cost is uniform, so k*RxDemux either way), then hands each
// parsed frame to its queue's FIFO, stalling while that FIFO is full
// (port-level pause). Heavy per-frame work (descriptor fetch, payload
// DMA, completions) happens in the per-queue pipelines so receive
// throughput scales with queues. The burst slice is scratch reused
// across bursts.
type rxDemuxMachine struct {
	n     *NIC
	st    rxDemuxState
	burst [][]byte
	i     int // next frame to steer within burst

	// Parked-frame context while stalled on a full queue FIFO.
	stallQ   *nicQueue
	stallSeg ether.Segment
}

// run is the machine's handler body.
func (m *rxDemuxMachine) run(h *sim.HandlerCtx) {
	n := m.n
	for {
		switch m.st {
		case rxsGet:
			frame, ok := n.rxQ.GetH(h)
			if !ok {
				return
			}
			m.burst = append(m.burst[:0], frame)
			for len(m.burst) < rxBatch {
				f2, ok := n.rxQ.TryGet()
				if !ok {
					break
				}
				m.burst = append(m.burst, f2)
			}
			// One demux occupancy per arrival burst; a zero charge
			// falls through inline without an event.
			m.i = 0
			m.st = rxsDemux
			if d := sim.Time(len(m.burst)) * n.params.RxDemux; d > 0 {
				h.Rearm(d)
				return
			}
		case rxsDemux:
			for m.i < len(m.burst) {
				// The view-parsed payload aliases frame; both travel
				// together in the rxFrame and the payload is copied into
				// the receive buffer before the frame is recycled.
				frame := m.burst[m.i]
				seg, err := ether.ParseView(frame)
				if err != nil {
					n.rxErrors++
					n.putFrameBuf(frame)
					m.i++
					continue
				}
				qid, ok := n.steering[seg.Flow.Tuple()]
				if !ok {
					qid = 0
				}
				q, exists := n.queues[qid]
				if !exists {
					n.drops++
					n.putFrameBuf(frame)
					m.i++
					continue
				}
				if q.rxFIFO.Len() >= rxQueueCap {
					m.stallQ, m.stallSeg = q, seg
					m.st = rxsStall
					q.rxSpace.WaitH(h)
					return
				}
				q.rxFIFO.Put(rxFrame{frame: frame, seg: seg})
				m.i++
			}
			for j := range m.burst {
				m.burst[j] = nil // drop frame refs until the next burst
			}
			m.st = rxsGet
		case rxsStall:
			// Re-check on every broadcast; the frame was already
			// parsed.
			q := m.stallQ
			if q.rxFIFO.Len() >= rxQueueCap {
				q.rxSpace.WaitH(h)
				return
			}
			q.rxFIFO.Put(rxFrame{frame: m.burst[m.i], seg: m.stallSeg})
			m.i++
			m.stallQ, m.stallSeg = nil, ether.Segment{}
			m.st = rxsDemux
		}
	}
}

// rxCplState enumerates where the completer machine resumes.
type rxCplState int

const (
	csGet     rxCplState = iota // fetch the next in-flight DMA
	csWaitSig                   // waiting for its completion signal
	csFlush                     // flush DMA in progress
)

// rxCplMachine is one queue's completer: it retires receive DMAs in
// issue order, recycles their tag slots, and writes coalesced
// completion entries plus the status counter in one flush DMA, then
// fires the (armed) interrupt.
type rxCplMachine struct {
	n    *NIC
	q    *nicQueue
	st   rxCplState
	pend rxPending
	vec  pcie.XferVec
}

// run is the machine's handler body.
func (m *rxCplMachine) run(h *sim.HandlerCtx) {
	n, q := m.n, m.q
	for {
		switch m.st {
		case csGet:
			pend, ok := q.rxPend.GetH(h)
			if !ok {
				return
			}
			m.pend = pend
			m.st = csWaitSig
		case csWaitSig:
			if !m.pend.sig.WaitH(h) {
				return
			}
			// This machine is the signal's only waiter, so it can be
			// recycled as soon as the completion is observed.
			n.fab.RecycleAsyncSignal(m.pend.sig)
			q.rxSlots.Put(m.pend.slot)
			n.rxFrames++
			n.rxPayload += int64(m.pend.pay)
			n.RxPerQueue[q.cfg.QID]++
			q.cplBuf = append(q.cplBuf, m.pend.cpl)
			m.pend = rxPending{}
			// Flush when the batch fills or no more DMAs are in flight
			// (the queue may be paused waiting for these completions).
			if len(q.cplBuf) >= rxBatch || q.rxPend.Len() == 0 {
				if n.prepFlush(q) > 0 {
					m.vec.Start(n.fab, n.port, q.cplStage, q.cplExts, false)
					m.st = csFlush
					continue
				}
			}
			m.st = csGet
		case csFlush:
			if !m.vec.Step(h) {
				return
			}
			n.finishFlush(q)
			m.st = csGet
		}
	}
}
