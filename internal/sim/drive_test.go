package sim

import "testing"

// stagedUse is a Start/Step machine for "sleep 3µs, a zero-length
// stage, acquire r, hold 2µs, release": the shape pcie.Xfer has, small
// enough to check against its straight-line goroutine form.
type stagedUse struct {
	r    *Resource
	st   int
	tick ResTicket
}

func (m *stagedUse) Step(h *HandlerCtx) bool {
	for {
		switch m.st {
		case 0:
			m.st = 1
			h.Rearm(3 * Microsecond)
			return false
		case 1:
			// A zero-length stage falls through without an event, as
			// Sleep(0) does.
			m.st = 2
		case 2:
			if !m.r.AcquireH(h, &m.tick) {
				return false
			}
			m.st = 3
			h.Rearm(2 * Microsecond)
			return false
		case 3:
			m.r.Release()
			m.st = 4
			return true
		default:
			panic("stagedUse: Step after completion")
		}
	}
}

// TestGoroutineProcDrivesMachine pins the drive loop every blocking
// operation is built on: a goroutine proc stepping a machine and
// parking on false must produce the schedule of the straight-line
// Sleep/Acquire/Sleep/Release code — same completion time, same
// dispatched events, same parks — with a holder ahead of it on the
// resource and a spurious wake while it waits. The same machine run by
// a handler proc lands at the same instant with the same event count.
func TestGoroutineProcDrivesMachine(t *testing.T) {
	type result struct {
		done   Time
		steps  uint64
		parks  uint64
		waiter *Proc
	}
	run := func(waiter func(e *Env, r *Resource, done *Time) *Proc) result {
		e := NewEnv()
		defer e.Close()
		r := NewResource(e, "r", 1)
		e.Spawn("holder", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Microsecond)
			r.Release()
		})
		var res result
		res.waiter = waiter(e, r, &res.done)
		// Spurious wake while the waiter is queued behind the holder.
		e.Schedule(5*Microsecond, func() { e.wake(res.waiter) })
		e.Run(-1)
		res.steps, res.parks = e.Steps(), e.Stats().Parks
		return res
	}

	straight := run(func(e *Env, r *Resource, done *Time) *Proc {
		return e.Spawn("waiter", func(p *Proc) {
			p.Sleep(3 * Microsecond)
			p.Sleep(0)
			r.Acquire(p)
			p.Sleep(2 * Microsecond)
			r.Release()
			*done = p.Now()
		})
	})
	driven := run(func(e *Env, r *Resource, done *Time) *Proc {
		return e.Spawn("waiter", func(p *Proc) {
			m := &stagedUse{r: r}
			h := p.Ctx()
			for !m.Step(h) {
				p.Park()
			}
			*done = p.Now()
		})
	})
	handler := run(func(e *Env, r *Resource, done *Time) *Proc {
		m := &stagedUse{r: r}
		return e.SpawnHandler("waiter", func(h *HandlerCtx) {
			if m.Step(h) {
				*done = h.Now()
				h.Exit()
			}
		}).proc
	})

	if want := 12 * Microsecond; straight.done != want {
		t.Fatalf("straight-line waiter done at %v, want %v", straight.done, want)
	}
	if driven.done != straight.done || driven.steps != straight.steps || driven.parks != straight.parks {
		t.Fatalf("driven machine: done %v steps %d parks %d; straight-line: done %v steps %d parks %d",
			driven.done, driven.steps, driven.parks, straight.done, straight.steps, straight.parks)
	}
	// Holder: 1 park; waiter: sleep, acquire, spurious re-park, hold.
	if straight.parks != 5 {
		t.Fatalf("straight-line parks = %d, want 5", straight.parks)
	}
	if handler.done != straight.done || handler.steps != straight.steps {
		t.Fatalf("handler machine: done %v steps %d; straight-line: done %v steps %d",
			handler.done, handler.steps, straight.done, straight.steps)
	}
}
