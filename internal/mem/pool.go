package mem

import "fmt"

// ChunkPool manages fixed-size blocks carved from a region — the
// paper's §IV-C scheme for the HDC Engine's 1 GB on-board DDR3:
// intermediate buffers and packet receive buffers are "chunked into
// multiple fixed-size blocks (64KB)".
type ChunkPool struct {
	region    *Region
	chunkSize uint64
	free      []Addr
	total     int
	outMin    int // low-water mark of free chunks
}

// NewChunkPool carves count chunks of chunkSize bytes from region.
func NewChunkPool(region *Region, chunkSize uint64, count int) *ChunkPool {
	p := &ChunkPool{region: region, chunkSize: chunkSize, total: count}
	for i := 0; i < count; i++ {
		p.free = append(p.free, region.Alloc(chunkSize, chunkSize))
	}
	p.outMin = count
	return p
}

// ChunkSize returns the size of each chunk.
func (p *ChunkPool) ChunkSize() uint64 { return p.chunkSize }

// Free returns the number of available chunks.
func (p *ChunkPool) Free() int { return len(p.free) }

// Total returns the pool size.
func (p *ChunkPool) Total() int { return p.total }

// LowWater returns the minimum number of free chunks ever observed.
func (p *ChunkPool) LowWater() int { return p.outMin }

// Get takes a chunk; ok is false when the pool is empty (callers must
// back-pressure, as the hardware does when DDR3 buffers run out).
func (p *ChunkPool) Get() (Addr, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	a := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	if len(p.free) < p.outMin {
		p.outMin = len(p.free)
	}
	return a, true
}

// Put returns a chunk to the pool.
func (p *ChunkPool) Put(a Addr) {
	if !p.region.Contains(a) {
		panic(fmt.Sprintf("mem: chunk %#x outside pool region %s", uint64(a), p.region.Name))
	}
	if uint64(a-p.region.Base)%p.chunkSize != 0 {
		panic(fmt.Sprintf("mem: misaligned chunk %#x", uint64(a)))
	}
	if len(p.free) >= p.total {
		panic("mem: chunk pool overflow (double free?)")
	}
	p.free = append(p.free, a)
}

// ScatterList is an ordered set of (addr, len) extents describing data
// spread across buffers — NIC receive payloads before gathering, or a
// PRP-style page list.
type ScatterList struct {
	Extents []Extent
}

// Extent is one contiguous span.
type Extent struct {
	Addr Addr
	Len  int
}

// RingExtents appends the wrap-aware extents (at most two) covering n
// consecutive entries of size esz starting at slot head in a ring of
// entries slots based at base.
func RingExtents(exts []Extent, base Addr, head, n, entries, esz int) []Extent {
	first := min(entries-head, n)
	exts = append(exts, Extent{Addr: base + Addr(uint64(head)*uint64(esz)), Len: first * esz})
	if n > first {
		exts = append(exts, Extent{Addr: base, Len: (n - first) * esz})
	}
	return exts
}

// Add appends an extent.
func (s *ScatterList) Add(a Addr, n int) {
	s.Extents = append(s.Extents, Extent{Addr: a, Len: n})
}

// TotalLen returns the summed extent length.
func (s *ScatterList) TotalLen() int {
	t := 0
	for _, e := range s.Extents {
		t += e.Len
	}
	return t
}

// GatherInto copies all extents, in order, to contiguous memory at dst
// and returns the byte count — the "packet gathering" operation the
// HDC Engine performs for NIC-sourced D2D transfers (§IV-C).
func (s *ScatterList) GatherInto(m *Map, dst Addr) int {
	off := 0
	for _, e := range s.Extents {
		m.Copy(dst+Addr(off), e.Addr, e.Len)
		off += e.Len
	}
	return off
}

// ReadAll returns the concatenated bytes of all extents.
func (s *ScatterList) ReadAll(m *Map) []byte {
	out := make([]byte, 0, s.TotalLen())
	for _, e := range s.Extents {
		out = append(out, m.Read(e.Addr, e.Len)...)
	}
	return out
}
