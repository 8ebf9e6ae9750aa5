package hostos

import (
	"fmt"

	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). At a quiescent instant the host
// holds no cores and the IRQ queue is empty (the service loop parks on
// Get, which is fine), so the mutable state reduces to the core-pool
// utilization accounting and the per-category CPU account. The file
// system adds the extent allocator cursor, cache counters, and the
// resident page-cache content — data and dirty bits both decide future
// behaviour (cache hits, HDC writeback reconciliation).

// Snap codes the host's accounting state.
func (h *Host) Snap(c *snap.Codec) error {
	if n := h.irqQ.Len(); n != 0 {
		return fmt.Errorf("hostos: not quiescent: %d IRQs queued", n)
	}
	return snap.All(c, h.Cores, h.Acct)
}

// Snap codes the file system: allocator cursor and file layout
// (verified: the restore target stages the identical files), cache
// stats, then the resident pages, files and page indices in sorted
// order so encode order never leaks map iteration order.
func (fs *FileSystem) Snap(c *snap.Codec) error {
	c.Expect("hostos: allocator LBA", fs.nextLBA)
	c.I64(&fs.hits)
	c.I64(&fs.misses)
	names := fs.Files()
	c.Len("hostos: files", len(names))
	for _, n := range names {
		c.Expect("hostos: file", n)
		c.Expect("hostos: file "+n+" size", uint64(fs.files[n].Size))
	}
	snap.Map(c, &fs.cache, (*snap.Codec).Str, func(c *snap.Codec, pages *map[int]*pageState) {
		snap.Map(c, pages, (*snap.Codec).Int, func(c *snap.Codec, ps **pageState) {
			if *ps == nil {
				*ps = new(pageState)
			}
			c.Bool(&(*ps).dirty)
			c.Bytes(&(*ps).data)
		})
	})
	if c.Loading() {
		fs.cachePages = 0
		for _, pages := range fs.cache {
			fs.cachePages += len(pages)
		}
	}
	return c.Err()
}
