package sim

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines returns runtime.NumGoroutine once it stops
// falling, so goroutines that are still on their way out (test
// framework helpers, finished coroutines) do not skew a baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestCloseUnwindsParkedProcs: procs parked at quiescence (on a Signal
// that never fires, on an empty Queue) and procs spawned but never
// started all end at Close; their deferred calls run, their goroutines
// exit, Close is idempotent, and the env refuses to run again.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	base := settledGoroutines()
	e := NewEnv()
	never := NewSignal(e)
	q := NewQueue[int](e, "q")
	deferred := 0
	for i := 0; i < 4; i++ {
		e.Spawn("sig", func(p *Proc) {
			defer func() { deferred++ }()
			never.Wait(p)
			t.Error("parked proc resumed past its wait")
		})
		e.Spawn("queue", func(p *Proc) {
			defer func() { deferred++ }()
			for {
				q.Get(p)
			}
		})
	}
	e.Spawn("done", func(p *Proc) { p.Sleep(Microsecond) })
	e.Run(-1)
	// Spawned after the last Run: queued but never started.
	e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
	if e.Live() != 9 {
		t.Fatalf("live=%d before Close, want 9", e.Live())
	}
	if got := runtime.NumGoroutine(); got < base+9 {
		t.Fatalf("goroutines=%d, want ≥ %d with 9 procs pending", got, base+9)
	}

	e.Close()
	if deferred != 8 {
		t.Fatalf("%d deferred calls ran, want 8", deferred)
	}
	if e.Live() != 0 {
		t.Fatalf("live=%d after Close", e.Live())
	}
	if e.Pending() {
		t.Fatal("event queue survived Close")
	}
	if got := settledGoroutines(); got > base {
		t.Fatalf("goroutines=%d after Close, baseline %d", got, base)
	}
	e.Close() // idempotent

	for name, fn := range map[string]func(){
		"Run":   func() { e.Run(-1) },
		"Spawn": func() { e.Spawn("late", func(*Proc) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a closed env did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCloseUnwindsBlockingDefers: a deferred call that parks while
// Close unwinds the body is unwound too instead of dispatching events.
func TestCloseUnwindsBlockingDefers(t *testing.T) {
	e := NewEnv()
	fired := false
	e.Schedule(Second, func() { fired = true })
	never := NewSignal(e)
	e.Spawn("stuck", func(p *Proc) {
		defer p.Sleep(Microsecond)
		never.Wait(p)
	})
	e.Run(Millisecond)
	e.Close()
	if fired || e.Live() != 0 || e.Now() != Millisecond || e.Pending() {
		t.Fatalf("Close dispatched work: fired=%v live=%d now=%v pending=%v", fired, e.Live(), e.Now(), e.Pending())
	}
}

// TestFinishedProcRetainsNothing: a proc that ran to completion drops
// its coroutine, so a buffer its body captured becomes unreachable even
// while the *Proc itself is still referenced.
func TestFinishedProcRetainsNothing(t *testing.T) {
	e := NewEnv()
	collected := make(chan struct{})
	var p *Proc
	func() {
		buf := make([]byte, 1<<20)
		runtime.SetFinalizer(&buf[0], func(*byte) { close(collected) })
		p = e.Spawn("holder", func(p *Proc) {
			p.Sleep(Microsecond)
			buf[0]++
		})
	}()
	e.Run(-1)
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(p)
			runtime.KeepAlive(e)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("buffer captured by a finished proc was never collected")
}

// TestProcPanicSurfacesFromRun: a panic in a goroutine proc's body
// propagates out of Env.Run with its value, instead of killing the
// process from a goroutine nobody can recover.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ at Time }
	e := NewEnv()
	e.Spawn("ok", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		panic(boom{at: p.Now()})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(-1)
	}()
	if got != (boom{at: 3 * Microsecond}) {
		t.Fatalf("Run panicked with %v, want boom{3µs}", got)
	}
	e.Close()
	if e.Live() != 0 {
		t.Fatalf("live=%d after Close", e.Live())
	}
}
