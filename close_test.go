package dcsctrl_test

import (
	"runtime"
	"testing"
	"time"

	"dcsctrl"
)

// liveState forces a collection and returns the goroutine count and
// live heap, letting goroutines that are already exiting finish first.
func liveState() (goroutines int, heap uint64) {
	goroutines = runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= goroutines {
			break
		}
		goroutines = n
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goroutines, ms.HeapAlloc
}

// TestCloseReclaimsTestbeds: a closed testbed leaves nothing behind.
// Five DCS-ctrl testbeds each stage a 16 MB object and send 64 KB of
// it, leaving their device service loops parked at quiescence; after
// Close the goroutine count is back to its baseline and the live heap
// within 50 MB of it (the five staged objects alone exceed that).
func TestCloseReclaimsTestbeds(t *testing.T) {
	baseG, baseHeap := liveState()
	content := payload(16 << 20)
	const n = 64 << 10
	for i := 0; i < 5; i++ {
		tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
		f, err := tb.StageFile("obj", content)
		if err != nil {
			t.Fatal(err)
		}
		conn := tb.OpenConnection(true)
		tb.Go("server", func(p *dcsctrl.Proc) {
			_, err = tb.SendFile(p, f, 0, n, conn, dcsctrl.ProcMD5)
		})
		tb.Go("client", func(p *dcsctrl.Proc) { tb.ClientRecv(p, conn, n) })
		tb.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tb.Env.Live() == 0 {
			t.Fatal("no parked processes: the test no longer exercises Close")
		}
		tb.Close()
		tb.Close() // idempotent
		if tb.Env.Live() != 0 {
			t.Fatalf("testbed %d: %d processes live after Close", i, tb.Env.Live())
		}
	}
	g, heap := liveState()
	if g > baseG {
		t.Errorf("goroutines %d after closing 5 testbeds, baseline %d", g, baseG)
	}
	const slack = 50 << 20
	if heap > baseHeap+slack {
		t.Errorf("live heap %.1f MB after closing 5 testbeds, baseline %.1f MB (slack 50 MB)",
			float64(heap)/(1<<20), float64(baseHeap)/(1<<20))
	}
}
