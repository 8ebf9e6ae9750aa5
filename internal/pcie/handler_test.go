package pcie

import (
	"bytes"
	"testing"

	"dcsctrl/internal/sim"
)

// TestMixedFlavorDMAContention issues two 4 KiB SSD→DRAM transfers at
// the same instant, so they contend for the SSD's up-link: one from a
// goroutine MustDMA, the other either from DMAAsync (a handler worker
// driving its own Xfer) or from a second goroutine MustDMA. Whichever
// is issued first must win the link, and the mixed-flavor run must
// complete both transfers in the same order at the same instants as
// the all-goroutine run.
func TestMixedFlavorDMAContention(t *testing.T) {
	type completion struct {
		who string
		at  sim.Time
	}
	const n = 4096
	run := func(async, otherFirst bool) []completion {
		r := newRig()
		defer r.env.Close()
		r.mm.Write(r.ssdBuf.Base, bytes.Repeat([]byte{0xA5}, n))
		r.mm.Write(r.ssdBuf.Base+2*n, bytes.Repeat([]byte{0x5A}, n))
		var log []completion
		issueG := func() {
			r.env.Spawn("g", func(p *sim.Proc) {
				r.fab.MustDMA(p, r.ssd, r.dram.Base, r.ssdBuf.Base, n)
				log = append(log, completion{"g", p.Now()})
			})
		}
		issueOther := func() {
			dst, src := r.dram.Base+2*n, r.ssdBuf.Base+2*n
			if !async {
				r.env.Spawn("o", func(p *sim.Proc) {
					r.fab.MustDMA(p, r.ssd, dst, src, n)
					log = append(log, completion{"o", p.Now()})
				})
				return
			}
			sig := r.fab.DMAAsync(r.ssd, dst, src, n)
			r.env.Spawn("o-wait", func(p *sim.Proc) {
				sig.Wait(p)
				log = append(log, completion{"o", p.Now()})
			})
		}
		if otherFirst {
			issueOther()
			issueG()
		} else {
			issueG()
			issueOther()
		}
		r.env.Run(-1)
		if async && r.env.Stats().HandlerDispatches == 0 {
			t.Fatal("DMAAsync transfer did not run on a handler worker")
		}
		if got := r.mm.Read(r.dram.Base, n); !bytes.Equal(got, bytes.Repeat([]byte{0xA5}, n)) {
			t.Fatal("goroutine DMA payload corrupted")
		}
		if got := r.mm.Read(r.dram.Base+2*n, n); !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, n)) {
			t.Fatal("second DMA payload corrupted")
		}
		if r.ssd.BytesOut() != 2*n || r.fab.HostBytes() != 2*n {
			t.Fatalf("ssd out %d host bytes %d, want %d each", r.ssd.BytesOut(), r.fab.HostBytes(), 2*n)
		}
		return log
	}

	// An uncontended transfer's latency, to show the loser really queued.
	solo := newRig()
	var soloEnd sim.Time
	solo.env.Spawn("solo", func(p *sim.Proc) {
		solo.fab.MustDMA(p, solo.ssd, solo.dram.Base, solo.ssdBuf.Base, n)
		soloEnd = p.Now()
	})
	solo.env.Run(-1)
	solo.env.Close()

	for _, otherFirst := range []bool{false, true} {
		mixed, goroutines := run(true, otherFirst), run(false, otherFirst)
		if len(mixed) != 2 || len(goroutines) != 2 {
			t.Fatalf("otherFirst=%v: completions mixed %v, goroutines %v", otherFirst, mixed, goroutines)
		}
		winner := "g"
		if otherFirst {
			winner = "o"
		}
		if goroutines[0].who != winner || goroutines[0].at != soloEnd || goroutines[1].at <= soloEnd {
			t.Fatalf("otherFirst=%v: all-goroutine completions %v, want %s first at %v and the other queued behind it",
				otherFirst, goroutines, winner, soloEnd)
		}
		for i := range mixed {
			if mixed[i] != goroutines[i] {
				t.Fatalf("otherFirst=%v: mixed-flavor completions %v, all-goroutine %v", otherFirst, mixed, goroutines)
			}
		}
	}
}
