package pcie

// The fabric's DMA machine (DESIGN.md §16). Xfer is the one
// implementation of a DMA transaction's store-and-forward pipeline: an
// explicit state machine whose stage delays are Rearms, whose
// bandwidth-server occupancies are the staged AcquireH / HoldTime /
// CompleteH triple, and whose fault draws happen at fixed pipeline
// stages. A handler proc drives it from its body; (*Fabric).DMA drives
// it from a goroutine proc, parking whenever Step reports false — so a
// transfer costs the same whichever flavor issues it, and the
// deterministic fault streams stay shared. XferVec chains Xfers over a
// scatter-gather list; dmaWorker, the pooled async-DMA worker, is
// built on Xfer.

import (
	"fmt"

	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
)

// xferState enumerates where an Xfer resumes after a re-arm. States
// are ordered along the store-and-forward pipeline; zero-duration
// stages fall through inline without an event, as Sleep(0) does.
type xferState int

const (
	xferIdle     xferState = iota // no transfer staged
	xferStart                     // staged and routed: no-op, local move, or draw degrade fault
	xferSetup                     // degrade stall elapsed; charge DMA setup
	xferAcqUp                     // acquire the source up-link
	xferUpHold                    // up-link occupancy elapsed
	xferAcqCore                   // acquire the switch core
	xferCoreHold                  // core occupancy elapsed
	xferAcqDown                   // acquire the destination down-link
	xferDownHold                  // down-link occupancy elapsed
	xferProp                      // propagation elapsed; copy and account
	xferLocal                     // device-local: setup elapsed; copy
)

// Xfer is one in-flight DMA transaction: the machine behind both
// (*Fabric).DMA and handler-driven transfers. Start stages the
// transfer, then the owner calls Step until it reports true; every
// false return means the machine re-armed the proc (or enrolled it on
// a bandwidth server) — a handler body must return, a goroutine proc
// parks.
//
// The zero value is idle and reusable: a completed Xfer may be
// Started again, so one machine per owner serves any number of
// sequential transfers without allocating.
type Xfer struct {
	f        *Fabric
	st       xferState
	dst, src mem.Addr
	n        int
	tick     sim.ResTicket
	rt       route
}

// Start stages one transfer; a zero-length one completes on the first
// Step. Policy errors panic (the MustDMA contract: handler paths are
// validated at configuration time).
func (x *Xfer) Start(f *Fabric, initiator *Port, dst, src mem.Addr, n int) {
	var rt route
	if n != 0 {
		if n < 0 {
			panic("pcie: negative DMA length")
		}
		var err error
		if rt, err = f.resolve(initiator, dst, src); err != nil {
			panic(err)
		}
	}
	x.start(f, dst, src, n, rt)
}

// start stages a transfer whose length and route are validated.
func (x *Xfer) start(f *Fabric, dst, src mem.Addr, n int, rt route) {
	if x.st != xferIdle {
		panic("pcie: Xfer started while a transfer is in flight")
	}
	x.f = f
	x.dst, x.src, x.n, x.rt = dst, src, n, rt
	x.st = xferStart
}

// Active reports whether a transfer is staged or in flight.
func (x *Xfer) Active() bool { return x.st != xferIdle }

// Step advances the transfer and reports whether it completed. On
// false the machine has re-armed h's proc or enrolled it on a
// bandwidth server and makes progress on the next wake: a handler body
// must return, a goroutine proc parks.
//
//dcslint:hotpath
func (x *Xfer) Step(h *sim.HandlerCtx) bool {
	f := x.f
	for {
		switch x.st {
		case xferIdle:
			panic("pcie: Step on idle Xfer")
		case xferStart:
			if x.n == 0 {
				x.finish()
				return true
			}
			if x.rt.srcPort == x.rt.dstPort {
				// Device-local move: no bus traffic, only internal copy
				// time.
				x.st = xferLocal
				if d := f.params.DMASetup; d > 0 {
					h.Rearm(d)
					return false
				}
				continue
			}
			// Store-and-forward through the switch: serialize on the
			// source link, the switch core, and the destination link in
			// turn. Each stage is an independent bandwidth server, so
			// concurrent transactions on disjoint links pipeline freely —
			// no transfer ever holds one link while waiting for another
			// (which would convoy the whole fabric).
			x.st = xferSetup
			if f.params.Faults.Hit(fault.PCIeLinkDegrade) {
				h.Rearm(linkRetrainStall)
				return false
			}
		case xferSetup:
			x.st = xferAcqUp
			if d := f.params.DMASetup; d > 0 {
				h.Rearm(d)
				return false
			}
		case xferAcqUp:
			if !x.rt.srcPort.up.AcquireH(h, &x.tick) {
				return false
			}
			x.st = xferUpHold
			if d := x.rt.srcPort.up.HoldTime(x.n); d > 0 {
				h.Rearm(d)
				return false
			}
		case xferUpHold:
			x.rt.srcPort.up.CompleteH(x.n)
			x.st = xferAcqCore
		case xferAcqCore:
			if !f.core.AcquireH(h, &x.tick) {
				return false
			}
			x.st = xferCoreHold
			if d := f.core.HoldTime(x.n); d > 0 {
				h.Rearm(d)
				return false
			}
		case xferCoreHold:
			f.core.CompleteH(x.n)
			x.st = xferAcqDown
		case xferAcqDown:
			if !x.rt.dstPort.down.AcquireH(h, &x.tick) {
				return false
			}
			x.st = xferDownHold
			if d := x.rt.dstPort.down.HoldTime(x.n); d > 0 {
				h.Rearm(d)
				return false
			}
		case xferDownHold:
			x.rt.dstPort.down.CompleteH(x.n)
			x.st = xferProp
			if d := f.params.PropLatency; d > 0 {
				h.Rearm(d)
				return false
			}
		case xferProp:
			f.mem.Copy(x.dst, x.src, x.n)
			x.rt.srcPort.bytesOut += int64(x.n)
			x.rt.dstPort.bytesIn += int64(x.n)
			if x.rt.srcReg.Kind == mem.HostDRAM || x.rt.dstReg.Kind == mem.HostDRAM {
				f.hostBytes += int64(x.n)
			} else {
				f.p2pBytes += int64(x.n)
			}
			x.finish()
			return true
		case xferLocal:
			f.mem.Copy(x.dst, x.src, x.n)
			x.finish()
			return true
		default:
			panic(fmt.Sprintf("pcie: Xfer in impossible state %d", x.st))
		}
	}
}

// finish resets the machine to idle, dropping region/port references.
func (x *Xfer) finish() {
	x.st = xferIdle
	x.rt = route{}
}

// XferVec is (*Fabric).MustDMAVec as a machine: the extents run
// strictly in order, each on the Xfer a DMA call drives, with
// zero-length extents skipped inline. Like Xfer, the zero value is
// idle and reusable.
type XferVec struct {
	x         Xfer
	f         *Fabric
	initiator *Port
	base      mem.Addr
	exts      []mem.Extent
	gather    bool
	i         int
	off       mem.Addr
	active    bool
}

// Start stages one vectored transfer. The extent slice must stay
// unmutated until Step reports completion (the posted-buffer
// stability contract DMA hardware imposes anyway).
func (v *XferVec) Start(f *Fabric, initiator *Port, base mem.Addr, exts []mem.Extent, gather bool) {
	if v.active || v.x.Active() {
		panic("pcie: XferVec started while a transfer is in flight")
	}
	v.f = f
	v.initiator = initiator
	v.base = base
	v.exts = exts
	v.gather = gather
	v.i, v.off = 0, 0
	v.active = true
}

// Active reports whether a vectored transfer is in flight.
func (v *XferVec) Active() bool { return v.active }

// Step advances the vectored transfer and reports whether every
// extent completed. On false the caller returns or parks, exactly as
// with Xfer.Step.
//
//dcslint:hotpath
func (v *XferVec) Step(h *sim.HandlerCtx) bool {
	if !v.active {
		panic("pcie: Step on idle XferVec")
	}
	for {
		if !v.x.Active() {
			if v.i == len(v.exts) {
				v.active = false
				v.exts = nil
				return true
			}
			e := v.exts[v.i]
			if v.gather {
				v.x.Start(v.f, v.initiator, v.base+v.off, e.Addr, e.Len)
			} else {
				v.x.Start(v.f, v.initiator, e.Addr, v.base+v.off, e.Len)
			}
		}
		if !v.x.Step(h) {
			return false
		}
		v.off += mem.Addr(v.exts[v.i].Len)
		v.i++
	}
}

// dmaWorker is one pooled async-DMA worker: it runs its job's
// transfer on an Xfer, fires the job's signal, returns itself to the
// idle count, and takes the next job from the asyncJobs queue (parking
// there when none is queued).
type dmaWorker struct {
	f       *Fabric
	x       Xfer
	job     asyncJob
	hasJob  bool
	running bool // the staged job's transfer has been started
}

// run is the worker's handler body.
func (w *dmaWorker) run(h *sim.HandlerCtx) {
	f := w.f
	for {
		if !w.hasJob {
			job, ok := f.asyncJobs.GetH(h)
			if !ok {
				return // parked on the job queue
			}
			w.job = job
			w.hasJob = true
		}
		if !w.running {
			w.x.Start(f, w.job.initiator, w.job.dst, w.job.src, w.job.n)
			w.running = true
		}
		if !w.x.Step(h) {
			return
		}
		w.job.sig.Fire(nil)
		f.asyncIdle++
		w.job = asyncJob{}
		w.hasJob, w.running = false, false
	}
}
