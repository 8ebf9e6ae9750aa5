package mem

import "testing"

// The data plane depends on these operations being allocation-free:
// every DMA, NVMe block move, and NIC frame copy goes through them.
// A regression here multiplies across millions of simulated events.

func TestCopySameMapZeroAlloc(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("dram", HostDRAM, 1<<20, true)
	m.Write(r.Base, make([]byte, 4096))
	dst, src := r.Base+(512<<10), r.Base
	if n := testing.AllocsPerRun(100, func() {
		m.Copy(dst, src, 4096)
	}); n != 0 {
		t.Fatalf("Map.Copy (same map) allocates %v per run", n)
	}
}

func TestReadIntoZeroAlloc(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("dram", HostDRAM, 1<<20, true)
	buf := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() {
		m.ReadInto(r.Base, buf)
	}); n != 0 {
		t.Fatalf("Map.ReadInto allocates %v per run", n)
	}
}

func TestViewZeroAlloc(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("dram", HostDRAM, 1<<20, true)
	var sink byte
	if n := testing.AllocsPerRun(100, func() {
		v := m.View(r.Base+64, 4096)
		sink += v[0]
	}); n != 0 {
		t.Fatalf("Map.View allocates %v per run", n)
	}
	_ = sink
}

func TestZeroZeroAlloc(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("dram", HostDRAM, 1<<20, true)
	if n := testing.AllocsPerRun(100, func() {
		m.Zero(r.Base, 4096)
	}); n != 0 {
		t.Fatalf("Map.Zero allocates %v per run", n)
	}
}

// Resolve with the one-entry cache must stay allocation-free across
// alternating regions (cache hits and misses both).
func TestResolveZeroAlloc(t *testing.T) {
	m := NewMap()
	a := m.AddRegion("a", HostDRAM, 1<<20, true)
	b := m.AddRegion("b", DeviceDRAM, 1<<20, true)
	if n := testing.AllocsPerRun(100, func() {
		m.MustResolve(a.Base + 100)
		m.MustResolve(b.Base + 200)
	}); n != 0 {
		t.Fatalf("Map.MustResolve allocates %v per run", n)
	}
}

// A copy whose spans straddle pages and blocks takes the piecewise
// path; once first touch has allocated the blocks it must not
// allocate either.
func TestCopyCrossBlockZeroAlloc(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("dram", HostDRAM, 1<<20, true)
	src := r.Base + cellSize - 2048
	dst := r.Base + (512 << 10) - 2048 - 64
	m.Write(src, make([]byte, 4096))
	if n := testing.AllocsPerRun(100, func() {
		m.Copy(dst, src, 4096)
	}); n != 0 {
		t.Fatalf("Map.Copy (cross-block) allocates %v per run", n)
	}
}
