// Package mem models the physical address space of the testbed: host
// DRAM, device BARs (HDC Engine BRAM and on-board DDR3, GPU VRAM), and
// the buffers that live in them. All regions carry real bytes, so the
// data plane is functionally testable end-to-end; the bytes live in
// lazily allocated, copy-on-write pages (see Region).
//
// Regions can refuse inbound peer-to-peer traffic. This is how the
// testbed encodes the paper's observation (§V-A) that an NVMe SSD and
// a NIC cannot talk directly: both are DMA masters whose internal
// memory is not exposed on the bus, so software-controlled P2P has no
// target to aim at. The HDC Engine's BRAM/DDR3 *are* exposed, which is
// exactly what makes the DCS-ctrl path possible.
package mem

import (
	"fmt"
	"sort"

	"dcsctrl/internal/sim/snap"
)

// Kind classifies a memory region.
type Kind int

// Region kinds.
const (
	HostDRAM       Kind = iota // host main memory
	DeviceBRAM                 // FPGA on-chip block RAM (fast, small)
	DeviceDRAM                 // FPGA on-board DDR3 (1 GB on the VC707)
	GPUVRAM                    // GPU device memory
	DeviceInternal             // device-private memory, not bus-addressable
	MMIO                       // register window (doorbells)
)

func (k Kind) String() string {
	switch k {
	case HostDRAM:
		return "host-dram"
	case DeviceBRAM:
		return "device-bram"
	case DeviceDRAM:
		return "device-dram"
	case GPUVRAM:
		return "gpu-vram"
	case DeviceInternal:
		return "device-internal"
	case MMIO:
		return "mmio"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Addr is a 64-bit physical bus address.
type Addr uint64

// Region is a contiguous span of the physical address space.
//
// Its bytes live in a page table rather than one eager slice: regions
// are sized like hardware (hundreds of megabytes across a cluster)
// while live content is a few percent. A page is absent until first
// written and reads as zero while absent; private pages are allocated
// a cell (cellSize bytes) at a time in contiguous blocks; a restored
// page aliases the checkpoint buffer it came from until the first
// write takes a private copy (DESIGN.md §11, §17).
type Region struct {
	Name string
	Kind Kind
	Base Addr
	Size uint64

	// P2PTarget reports whether peer devices may DMA into/out of this
	// region. Host DRAM and exposed BARs are targets; device-internal
	// memory (SSD data buffers, NIC FIFOs) is not.
	P2PTarget bool

	cells     []cell
	nShared   int // pages aliasing a checkpoint buffer, across all cells
	writeHook func(off uint64, n int)
	allocOff  uint64 // bump allocator cursor

	// hiWater is one past the highest byte ever stored by WriteAt or
	// Copy. It bounds nothing any more — absent pages are what make
	// scans cheap — but it is an encoded checkpoint field, so it keeps
	// its exact old meaning for byte-identical snapshots.
	hiWater uint64
}

// PageSize is the page-table granularity: the unit of copy-on-write
// sharing and of the checkpoint codec's sparse image.
const PageSize = snap.PageSize

// A cell is the first-touch allocation unit: writing any byte of an
// absent cell allocates a private block for the whole cell, so
// multi-page spans inside one cell are contiguous from the start. A
// View across cells in different blocks promotes them into one block
// (a one-time copy), after which the same span aliases directly.
const (
	cellShift = 16
	cellSize  = 1 << cellShift
	cellPages = cellSize / PageSize
)

// cell is one cellSize span of a region's page table.
type cell struct {
	// blk is the private block backing this cell; blk[0] sits at
	// region offset boff. Cells promoted together share one blk. nil
	// while every page of the cell is absent or shared.
	blk  []byte
	boff uint64
	// shared holds the pages aliasing a checkpoint buffer (nil entries
	// are private or absent) and nsh counts them. A shared page's slot
	// in blk stays zero until copy-on-write fills it.
	shared *[cellPages][]byte
	nsh    int
}

// zeroes backs every read of absent memory: views of absent spans
// alias it, so nothing may ever write through a View (ZeroPageClean
// checks that nothing did).
var zeroes [cellSize]byte

// ZeroPageClean reports whether the shared zero page is still all
// zero, i.e. no caller wrote through a View of absent memory.
func ZeroPageClean() bool { return snap.IsZero(zeroes[:]) }

// newBlock allocates a zeroed private block. It is the region's only
// allocation site.
func newBlock(n int) []byte {
	//dcslint:allow noalloc first touch, copy-on-write and view promotion allocate once per block; steady-state accesses reuse it (mem_copy_same_map_4k and mem_read_into_4k stay at 0 allocs/op)
	return make([]byte, n)
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr Addr) bool {
	return addr >= r.Base && uint64(addr-r.Base) < r.Size
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// SetWriteHook installs fn to be called after every write into the
// region with the written offset and length. This is the discrete-
// event analogue of hardware continuously snooping a completion-queue
// phase bit: in RTL the poll is free, here it is an event.
func (r *Region) SetWriteHook(fn func(off uint64, n int)) { r.writeHook = fn }

func (r *Region) check(off uint64, n int) {
	if n < 0 || off+uint64(n) > r.Size {
		panic(fmt.Sprintf("mem: access [%d,%d) outside region %s size %d",
			off, off+uint64(n), r.Name, r.Size))
	}
}

// cellEnd returns the region offset where off's cell ends.
func (r *Region) cellEnd(off uint64) uint64 {
	return min((off>>cellShift+1)<<cellShift, r.Size)
}

// pageEnd returns the region offset where off's page ends.
func (r *Region) pageEnd(off uint64) uint64 {
	return min((off/PageSize+1)*PageSize, r.Size)
}

// contiguous returns the private backing of [off, off+n), n > 0, when
// the span lies in one block and touches no shared page, else nil.
// This is the hot path of every read, write, copy and view.
func (r *Region) contiguous(off uint64, n int) []byte {
	first := &r.cells[off>>cellShift]
	if first.blk == nil {
		return nil
	}
	end := off + uint64(n)
	if lc := (end - 1) >> cellShift; lc != off>>cellShift {
		last := &r.cells[lc]
		if last.blk == nil || &last.blk[0] != &first.blk[0] {
			return nil
		}
	}
	if r.nShared != 0 && r.sharedIn(off, end) {
		return nil
	}
	return first.blk[off-first.boff : end-first.boff]
}

// sharedIn reports whether any page of [off, end) is shared.
func (r *Region) sharedIn(off, end uint64) bool {
	for c := off >> cellShift; c <= (end-1)>>cellShift; c++ {
		cl := &r.cells[c]
		if cl.nsh == 0 {
			continue
		}
		lo, hi := max(off, c<<cellShift), min(end, (c+1)<<cellShift)
		for p := lo / PageSize; p <= (hi-1)/PageSize; p++ {
			if cl.shared[p%cellPages] != nil {
				return true
			}
		}
	}
	return false
}

// allCold reports whether no byte of [off, end) is backed: every cell
// is absent, so the span reads as zero.
func (r *Region) allCold(off, end uint64) bool {
	for c := off >> cellShift; c <= (end-1)>>cellShift; c++ {
		if cl := &r.cells[c]; cl.blk != nil || cl.nsh != 0 {
			return false
		}
	}
	return true
}

// peek returns read-only bytes from off to the end of its page:
// the shared page, the private slot, or the zero page.
func (r *Region) peek(off uint64) []byte {
	cl := &r.cells[off>>cellShift]
	pe := r.pageEnd(off)
	if cl.nsh != 0 {
		if sp := cl.shared[off/PageSize%cellPages]; sp != nil {
			return sp[off%PageSize:]
		}
	}
	if cl.blk == nil {
		return zeroes[:pe-off]
	}
	return cl.blk[off-cl.boff : pe-cl.boff]
}

// priv returns the private bytes from off to the end of its cell. The
// cell must be allocated and the pages written through it unshared
// (own guarantees both).
func (r *Region) priv(off uint64) []byte {
	cl := &r.cells[off>>cellShift]
	return cl.blk[off-cl.boff : r.cellEnd(off)-cl.boff]
}

// allocCell gives cell c a private block of its own.
func (r *Region) allocCell(c uint64) {
	lo := c << cellShift
	cl := &r.cells[c]
	cl.blk = newBlock(int(min(lo+cellSize, r.Size) - lo))
	cl.boff = lo
}

// unshare turns shared page p of cell c private. With keep the page's
// content is copied into its slot (copy-on-write); without, the slot
// keeps its zeroes because the caller overwrites the whole page.
func (r *Region) unshare(c, p uint64, keep bool) {
	cl := &r.cells[c]
	i := p % cellPages
	sp := cl.shared[i]
	if keep {
		if cl.blk == nil {
			r.allocCell(c)
		}
		copy(cl.blk[p*PageSize-cl.boff:], sp)
	}
	cl.shared[i] = nil
	cl.nsh--
	r.nShared--
	if cl.nsh == 0 {
		cl.shared = nil
	}
}

// own makes every page of [off, off+n), n > 0, private and every cell
// allocated, so priv may write the span. Shared pages the span fully
// covers are dropped without a copy unless keep (the caller reads
// them before overwriting, as an overlapping Copy does).
func (r *Region) own(off uint64, n int, keep bool) {
	end := off + uint64(n)
	for c := off >> cellShift; c <= (end-1)>>cellShift; c++ {
		cl := &r.cells[c]
		if cl.blk == nil {
			r.allocCell(c)
		}
		if cl.nsh == 0 {
			continue
		}
		lo, hi := max(off, c<<cellShift), min(end, (c+1)<<cellShift)
		for p := lo / PageSize; p <= (hi-1)/PageSize && cl.nsh != 0; p++ {
			if cl.shared[p%cellPages] == nil {
				continue
			}
			covered := lo <= p*PageSize && r.pageEnd(p*PageSize) <= hi
			r.unshare(c, p, keep || !covered)
		}
	}
}

// promote backs [off, end) with one fresh block covering its cells,
// copying their private and shared content in, and returns the span.
func (r *Region) promote(off, end uint64) []byte {
	c0, c1 := off>>cellShift, (end-1)>>cellShift
	lo := c0 << cellShift
	blk := newBlock(int(r.cellEnd(c1<<cellShift) - lo))
	for c := c0; c <= c1; c++ {
		cl := &r.cells[c]
		cs, ce := c<<cellShift, r.cellEnd(c<<cellShift)
		if cl.blk != nil {
			copy(blk[cs-lo:ce-lo], cl.blk[cs-cl.boff:ce-cl.boff])
		}
		cl.blk, cl.boff = blk, lo
	}
	r.own(off, int(end-off), true)
	return blk[off-lo : end-lo]
}

// store copies p to off, n > 0, through the slow path: own the span,
// then fill it cell by cell.
func (r *Region) store(off uint64, p []byte) {
	r.own(off, len(p), false)
	for len(p) > 0 {
		k := copy(r.priv(off), p)
		p = p[k:]
		off += uint64(k)
	}
}

// WriteAt copies p into the region at off and fires the write hook.
func (r *Region) WriteAt(off uint64, p []byte) {
	r.check(off, len(p))
	if end := off + uint64(len(p)); end > r.hiWater {
		r.hiWater = end
	}
	if len(p) != 0 {
		if b := r.contiguous(off, len(p)); b != nil {
			copy(b, p)
		} else {
			r.store(off, p)
		}
	}
	if r.writeHook != nil {
		//dcslint:allow noalloc hook bodies are model code vetted by shardsafe; benched paths run hook-free
		//dcslint:allow noblockhandler hooks take no Proc and cannot park; they fire signals and schedule events only
		r.writeHook(off, len(p))
	}
}

// ReadAt copies from the region at off into p.
func (r *Region) ReadAt(off uint64, p []byte) {
	r.check(off, len(p))
	if len(p) == 0 {
		return
	}
	if b := r.contiguous(off, len(p)); b != nil {
		copy(p, b)
		return
	}
	for len(p) > 0 {
		k := copy(p, r.peek(off))
		p = p[k:]
		off += uint64(k)
	}
}

// Bytes returns a read-only view of [off, off+n). The caller must not
// retain it across simulated time, and must never write through it:
// the view may alias the shared zero page or a checkpoint buffer.
// Spans inside one private block alias it directly; a span inside one
// page aliases whatever backs the page; an absent span aliases the
// zero page; anything else is first promoted into one private block.
func (r *Region) Bytes(off uint64, n int) []byte {
	r.check(off, n)
	if n == 0 {
		return zeroes[:0]
	}
	if b := r.contiguous(off, n); b != nil {
		return b
	}
	end := off + uint64(n)
	if (end-1)/PageSize == off/PageSize {
		return r.peek(off)[:n]
	}
	if n <= cellSize && r.allCold(off, end) {
		return zeroes[:n]
	}
	return r.promote(off, end)
}

// Zero clears [off, off+n) in place without allocating and fires the
// write hook, exactly as writing n zero bytes would. Absent pages are
// already zero and stay absent; shared pages the span covers are
// dropped rather than copied.
func (r *Region) Zero(off uint64, n int) {
	r.check(off, n)
	end := off + uint64(n)
	for c := off >> cellShift; n > 0 && c <= (end-1)>>cellShift; c++ {
		cl := &r.cells[c]
		lo, hi := max(off, c<<cellShift), min(end, (c+1)<<cellShift)
		for p := lo / PageSize; p <= (hi-1)/PageSize && cl.nsh != 0; p++ {
			if cl.shared[p%cellPages] != nil {
				covered := lo <= p*PageSize && r.pageEnd(p*PageSize) <= hi
				r.unshare(c, p, !covered)
			}
		}
		if cl.blk != nil {
			clear(cl.blk[lo-cl.boff : hi-cl.boff])
		}
	}
	if r.writeHook != nil {
		//dcslint:allow noalloc hook bodies are model code vetted by shardsafe; benched paths run hook-free
		r.writeHook(off, n)
	}
}

// Alloc carves n bytes (aligned) out of the region with a bump
// allocator and returns the bus address. It panics when the region is
// exhausted: the testbed sizes regions up front, as hardware does.
func (r *Region) Alloc(n uint64, align uint64) Addr {
	if align == 0 {
		align = 1
	}
	off := (r.allocOff + align - 1) &^ (align - 1)
	if off+n > r.Size {
		panic(fmt.Sprintf("mem: region %s exhausted (%d + %d > %d)", r.Name, off, n, r.Size))
	}
	r.allocOff = off + n
	return r.Base + Addr(off)
}

// AllocBytes returns the allocated span's free space remaining.
func (r *Region) FreeBytes() uint64 { return r.Size - r.allocOff }

// Map is the global bus address map: it assigns bases to regions and
// resolves addresses back to (region, offset).
type Map struct {
	regions []*Region
	next    Addr

	// last is a one-entry resolution cache in front of the binary
	// search: device models hammer the same region (their own BAR or
	// the host buffer they are streaming through) for long runs, so
	// most Resolve calls hit here. Purely a lookup memo — it never
	// affects results, only the cost of finding them.
	last *Region
}

// NewMap returns an empty address map starting at 4 GiB (leaving the
// low range free, as a real platform does).
func NewMap() *Map { return &Map{next: 4 << 30} }

// AddRegion creates and maps a region of the given size.
func (m *Map) AddRegion(name string, kind Kind, size uint64, p2pTarget bool) *Region {
	r := &Region{
		Name:      name,
		Kind:      kind,
		Base:      m.next,
		Size:      size,
		P2PTarget: p2pTarget,
		cells:     make([]cell, (size+cellSize-1)/cellSize),
	}
	m.regions = append(m.regions, r)
	// Keep a guard gap between regions so off-by-one addressing faults
	// are caught instead of silently landing in a neighbour.
	m.next += Addr(size) + 1<<20
	return r
}

// Resolve returns the region containing addr and the offset within it.
func (m *Map) Resolve(addr Addr) (*Region, uint64, error) {
	if r := m.last; r != nil && r.Contains(addr) {
		return r, uint64(addr - r.Base), nil
	}
	//dcslint:allow noalloc non-escaping search closure, stack-allocated (TestMemAllocFree proves 0 allocs/op)
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].End() > addr
	})
	if i < len(m.regions) && m.regions[i].Contains(addr) {
		m.last = m.regions[i]
		return m.regions[i], uint64(addr - m.regions[i].Base), nil
	}
	return nil, 0, fmt.Errorf("mem: unmapped address %#x", uint64(addr))
}

// MustResolve is Resolve that panics on unmapped addresses (device
// models treat a bad address as a modelling bug, not a runtime error).
//
//dcslint:hotpath
func (m *Map) MustResolve(addr Addr) (*Region, uint64) {
	r, off, err := m.Resolve(addr)
	if err != nil {
		panic(err)
	}
	return r, off
}

// Regions returns all mapped regions in address order. The returned
// slice is the map's own backing store, not a copy: callers must only
// iterate it (audited — internal/report and the tests do exactly
// that) and must not append to, reorder, or mutate it. Returning the
// live slice keeps per-call cost at zero for hot diagnostics.
func (m *Map) Regions() []*Region { return m.regions }

// Write copies p to the absolute address addr.
func (m *Map) Write(addr Addr, p []byte) {
	r, off := m.MustResolve(addr)
	r.WriteAt(off, p)
}

// Read copies n bytes from the absolute address addr into a freshly
// allocated slice. Hot paths should prefer ReadInto (caller-owned
// buffer) or View (no copy at all).
func (m *Map) Read(addr Addr, n int) []byte {
	p := make([]byte, n)
	m.ReadInto(addr, p)
	return p
}

// ReadInto copies len(p) bytes from the absolute address addr into p
// without allocating.
//
//dcslint:hotpath mem_read_into_4k
func (m *Map) ReadInto(addr Addr, p []byte) {
	r, off := m.MustResolve(addr)
	r.ReadAt(off, p)
}

// View returns a slice aliasing the backing store of [addr, addr+n).
// The span must be contiguous, i.e. lie inside one region — region
// spans always are, since regions are separated by guard gaps.
//
// Aliasing rules (see DESIGN.md §11): the view is only valid until
// the underlying buffer is rewritten or simulated time advances —
// callers must either consume it immediately (decode, hash, copy out)
// or take an explicit copy before parking. Writing through a View
// bypasses the region write hook; use Write/WriteAt for stores that
// must be observable.
//
//dcslint:hotpath
func (m *Map) View(addr Addr, n int) []byte {
	r, off := m.MustResolve(addr)
	return r.Bytes(off, n)
}

// Zero clears n bytes at addr in place, firing the write hook as a
// write of n zero bytes would, without allocating a zero buffer.
//
//dcslint:hotpath
func (m *Map) Zero(addr Addr, n int) {
	if n == 0 {
		return
	}
	r, off := m.MustResolve(addr)
	r.Zero(off, n)
}

// Copy moves n bytes from src to dst, preserving write-hook semantics
// at the destination. Both spans live in this map, so the copy runs
// region-to-region with no bounce buffer, with memmove semantics:
// overlapping same-region spans behave exactly as a read-snapshot-
// then-write would.
//
//dcslint:hotpath mem_copy_same_map_4k mem_copy_cross_block_4k
func (m *Map) Copy(dst, src Addr, n int) {
	if n == 0 {
		return
	}
	sr, soff := m.MustResolve(src)
	sr.check(soff, n)
	dr, doff := m.MustResolve(dst)
	dr.check(doff, n)
	if end := doff + uint64(n); end > dr.hiWater {
		dr.hiWater = end
	}
	s := sr.contiguous(soff, n)
	d := dr.contiguous(doff, n)
	if s != nil && d != nil {
		copy(d, s)
	} else {
		copySlow(dr, doff, sr, soff, n)
	}
	if dr.writeHook != nil {
		//dcslint:allow noalloc hook bodies are model code vetted by shardsafe; benched paths run hook-free
		//dcslint:allow noblockhandler hooks take no Proc and cannot park; they fire signals and schedule events only
		dr.writeHook(doff, n)
	}
}

// copySlow is Copy across blocks, shared or absent pages. The
// destination is owned first, so a source page it overlaps is read
// from the same private memory the copy writes; the copy then runs in
// pieces that stay inside one source page and one destination cell,
// high to low when the destination overlaps the source from above.
func copySlow(dr *Region, doff uint64, sr *Region, soff uint64, n int) {
	overlap := dr == sr && doff < soff+uint64(n) && soff < doff+uint64(n)
	dr.own(doff, n, overlap)
	if !overlap || doff < soff {
		for n > 0 {
			d := dr.priv(doff)
			k := copy(d[:min(len(d), n)], sr.peek(soff))
			doff, soff, n = doff+uint64(k), soff+uint64(k), n-k
		}
		return
	}
	de, se := doff+uint64(n), soff+uint64(n)
	for n > 0 {
		k := min(uint64(n), de-(de-1)>>cellShift<<cellShift, se-(se-1)/PageSize*PageSize)
		de, se, n = de-k, se-k, n-int(k)
		copy(dr.priv(de)[:k], sr.peek(se)[:k])
	}
}
