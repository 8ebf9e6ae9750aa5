package mem

import "dcsctrl/internal/sim/snap"

// Checkpoint support (DESIGN.md §17). A memory map's state is the
// byte content of its regions plus each region's bump-allocator
// cursor. Content is load-bearing everywhere — completion-queue phase
// bits, cumulative status words, ring descriptors, staged payloads are
// all read back through View — so the snapshot captures every region
// as an authoritative sparse page image, and the restore replaces the
// whole page table with the captured pages. Write hooks are
// deliberately bypassed: a restore is state transplantation, not
// simulated traffic, and must not schedule events.

// livePages appends r's non-zero pages in index order. Only backed
// cells are visited: an absent page is zero by construction.
func (r *Region) livePages(dst []snap.Page) []snap.Page {
	for c := range r.cells {
		cl := &r.cells[c]
		if cl.blk == nil && cl.nsh == 0 {
			continue
		}
		for off := uint64(c) << cellShift; off < r.cellEnd(uint64(c)<<cellShift); off += PageSize {
			if p := r.peek(off); !snap.IsZero(p) {
				dst = append(dst, snap.Page{Idx: int(off / PageSize), B: p})
			}
		}
	}
	return dst
}

// SnapSizeHint bounds the size Snap saves without scanning
// page content: every backed page counted as captured. Checkpoint
// writers reserve it up front so the multi-megabyte image is written
// into one buffer.
func (m *Map) SnapSizeHint() int {
	size := 4
	for _, r := range m.regions {
		size += 4 + len(r.Name) + 3*8 + snap.SparseHeaderBytes
		for c := range r.cells {
			if cl := &r.cells[c]; cl.blk != nil {
				size += int(r.cellEnd(uint64(c)<<cellShift)-uint64(c)<<cellShift) + cellPages*4
			} else {
				size += cl.nsh * snap.SparsePageBytes
			}
		}
	}
	return size
}

// Snap codes every region in address order — the regions slice is
// append-ordered by construction, so the order is deterministic
// without sorting.
func (m *Map) Snap(c *snap.Codec) error { return snap.Each(c, "mem: regions", m.regions) }

// Snap codes the region's name and size (verified at load), allocator
// cursor, write high-water mark, and sparse page image. Saving
// collects the non-zero pages first so the writer can reserve their
// encoded size once. Loading replaces the page table with the
// captured pages, which alias the checkpoint buffer until first
// written: the buffer must not change while this region lives.
func (r *Region) Snap(c *snap.Codec) error {
	c.Expect("mem: region", r.Name)
	c.Expect("mem: region "+r.Name+" size", r.Size)
	c.U64(&r.allocOff)
	c.U64(&r.hiWater)
	if c.Err() != nil {
		return c.Err()
	}
	var pages []snap.Page
	if c.Loading() {
		clear(r.cells)
		r.nShared = 0
	} else {
		pages = r.livePages(nil)
		c.Grow(snap.SparseHeaderBytes + len(pages)*snap.SparsePageBytes)
	}
	c.Sparse(r.Size, pages, r.share)
	return c.Err()
}

// share installs absent page idx as an alias of p.
func (r *Region) share(idx int, p []byte) {
	cl := &r.cells[idx/cellPages]
	if cl.shared == nil {
		cl.shared = new([cellPages][]byte)
	}
	cl.shared[idx%cellPages] = p
	cl.nsh++
	r.nShared++
}

// Snap codes the pool's free list in exact order. The list is LIFO
// and order is schedule state: which chunk address a future Get
// returns decides the PRP extents and DMA event shapes downstream.
func (p *ChunkPool) Snap(c *snap.Codec) error {
	c.Expect("mem: chunk pool total", p.total)
	c.Int(&p.outMin)
	snap.Seq(c, &p.free, snap.Word[Addr])
	return c.Err()
}
