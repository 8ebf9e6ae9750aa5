package mem

import (
	"fmt"

	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A memory map's state is the
// byte content of its regions plus each region's bump-allocator
// cursor. Content is load-bearing everywhere — completion-queue phase
// bits, cumulative status words, ring descriptors, staged payloads are
// all read back through View — so the snapshot captures every region
// as an authoritative sparse page image, and the restore replaces the
// whole page table with the captured pages. Write hooks are
// deliberately bypassed: a restore is state transplantation, not
// simulated traffic, and must not schedule events.

// SnapSection implements snap.Snapshotter (the section carries no
// node prefix; core registers maps under per-node names via
// snap wrappers — see internal/core/snapshot.go).
func (m *Map) SnapSection() string { return "mem" }

// capturedPage is one non-zero page of a region, in encode order.
type capturedPage struct {
	idx int
	b   []byte
}

// livePages appends r's non-zero pages in index order. Only backed
// cells are visited: an absent page is zero by construction.
func (r *Region) livePages(dst []capturedPage) []capturedPage {
	for c := range r.cells {
		cl := &r.cells[c]
		if cl.blk == nil && cl.nsh == 0 {
			continue
		}
		for off := uint64(c) << cellShift; off < r.cellEnd(uint64(c)<<cellShift); off += PageSize {
			if p := r.peek(off); !snap.IsZero(p) {
				dst = append(dst, capturedPage{int(off / PageSize), p})
			}
		}
	}
	return dst
}

// SnapSizeHint bounds the size SnapSave encodes without scanning
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

// SnapSave encodes every region: name and size (verified at load),
// allocator cursor, write high-water mark, and sparse page image, in
// address order — the regions slice is append-ordered by
// construction, so the encode order is deterministic without sorting.
// The pages are collected first so the writer can reserve the exact
// encoded size once.
func (m *Map) SnapSave(w *snap.Writer) error {
	var pages []capturedPage
	starts := make([]int, len(m.regions)+1)
	size := 4
	for i, r := range m.regions {
		pages = r.livePages(pages)
		starts[i+1] = len(pages)
		size += 4 + len(r.Name) + 3*8 + snap.SparseHeaderBytes
	}
	for _, p := range pages {
		size += 4 + len(p.b)
	}
	w.Grow(size)
	w.U32(uint32(len(m.regions)))
	for i, r := range m.regions {
		w.Str(r.Name)
		w.U64(r.Size)
		w.U64(r.allocOff)
		w.U64(r.hiWater)
		w.SparseHeader(r.Size, starts[i+1]-starts[i])
		for _, p := range pages[starts[i]:starts[i+1]] {
			w.SparsePage(p.idx, p.b)
		}
	}
	return nil
}

// SnapLoad overlays the captured images onto a freshly built map of
// the identical configuration: same regions, same order, same sizes.
// Every region's page table is replaced by the captured pages, which
// alias the checkpoint buffer until first written: the buffer must
// not change while this map lives.
func (m *Map) SnapLoad(r *snap.Reader) error {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(m.regions) {
		return fmt.Errorf("mem: snapshot has %d regions, map has %d", n, len(m.regions))
	}
	for _, reg := range m.regions {
		name := r.Str()
		size := r.U64()
		off := r.U64()
		hiWater := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if name != reg.Name || size != reg.Size {
			return fmt.Errorf("mem: snapshot region %q/%d, map region %q/%d (configuration mismatch)",
				name, size, reg.Name, reg.Size)
		}
		reg.allocOff = off
		reg.hiWater = hiWater
		clear(reg.cells)
		reg.nShared = 0
		prev := -1
		for i, np := 0, r.SparseHeader(reg.Size); i < np; i++ {
			idx, p := r.SparsePage(prev, reg.Size)
			if err := r.Err(); err != nil {
				return err
			}
			reg.share(idx, p)
			prev = idx
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
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

// SnapSave encodes the pool's free list in exact order. The list is
// LIFO and order is schedule state: which chunk address a future Get
// returns decides the PRP extents and DMA event shapes downstream.
func (p *ChunkPool) SnapSave(w *snap.Writer) error {
	w.Int(p.total)
	w.Int(p.outMin)
	w.U32(uint32(len(p.free)))
	for _, a := range p.free {
		w.U64(uint64(a))
	}
	return nil
}

// SnapLoad overlays the captured free list.
func (p *ChunkPool) SnapLoad(r *snap.Reader) error {
	total := r.Int()
	outMin := r.Int()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if total != p.total {
		return fmt.Errorf("mem: snapshot pool total %d, pool has %d", total, p.total)
	}
	p.outMin = outMin
	p.free = p.free[:0]
	for i := 0; i < n; i++ {
		p.free = append(p.free, Addr(r.U64()))
	}
	return r.Err()
}
