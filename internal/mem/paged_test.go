package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dcsctrl/internal/sim/snap"
)

// testSeed pins the quick-check PRNG so failures reproduce exactly
// (the repo-wide convention from sim_test.go).
const testSeed = 0x5EEDED

func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(testSeed))}
}

// pagedSize spans three whole cells plus a short tail page, so scripts
// cross page, cell and region-end boundaries.
const pagedSize = 3*cellSize + 2*PageSize + 100

// flat is the reference model: the eager byte slice a region used to
// be, plus the write high-water mark it encodes.
type flat struct {
	b       []byte
	hiWater uint64
}

// pick returns an offset in [0, size) biased toward page and cell
// boundaries, where the page table changes representation.
func pick(rng *rand.Rand, size uint64) uint64 {
	var off int64
	switch rng.Intn(3) {
	case 0:
		off = rng.Int63n(int64(size))
	case 1:
		off = rng.Int63n(int64(size/PageSize)+1)*PageSize + rng.Int63n(129) - 64
	default:
		off = rng.Int63n(int64(size/cellSize)+1)*cellSize + rng.Int63n(2*PageSize+1) - PageSize
	}
	return uint64(min(max(off, 0), int64(size)-1))
}

// span picks [off, off+n) inside the region, n up to about two cells.
func span(rng *rand.Rand, size uint64) (uint64, int) {
	off := pick(rng, size)
	n := rng.Intn(2*cellSize + PageSize)
	if rng.Intn(2) == 0 {
		n = rng.Intn(3 * PageSize)
	}
	return off, int(min(uint64(n), size-off))
}

// snapshotMap encodes m as a one-section checkpoint.
func snapshotMap(t *testing.T, m *Map) []byte {
	t.Helper()
	c := snap.NewSaver(snap.Header{Version: snap.Version})
	if err := c.Section("mem", func() error { return m.Snap(c) }); err != nil {
		t.Fatal(err)
	}
	return c.Finish()
}

// restoreMap overlays ckpt onto m, whose pages then alias ckpt.
func restoreMap(t *testing.T, m *Map, ckpt []byte) {
	t.Helper()
	r, _, err := snap.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	c := snap.NewLoader(r)
	if err := c.Section("mem", func() error { return m.Snap(c) }); err != nil {
		t.Fatal(err)
	}
}

// newPagedMap builds the two-region map the scripts run against.
func newPagedMap() (*Map, *Region, *Region) {
	m := NewMap()
	return m, m.AddRegion("a", HostDRAM, pagedSize, true), m.AddRegion("b", DeviceDRAM, pagedSize, true)
}

// runScript applies a random script of writes, zeroes, copies
// (overlapping same-region ones included), views and restores to a
// paged map and to flat references, failing on the first divergence.
// Restores fork the map from its own checkpoint, so later steps run
// over shared pages; every checkpoint must survive the script intact.
func runScript(t *testing.T, rng *rand.Rand, steps int) bool {
	m, a, b := newPagedMap()
	ref := [2]*flat{{b: make([]byte, pagedSize)}, {b: make([]byte, pagedSize)}}
	regs := [2]*Region{a, b}
	var ckpts, ckptCopies [][]byte
	for step := 0; step < steps; step++ {
		i := rng.Intn(2)
		r, f := regs[i], ref[i]
		off, n := span(rng, r.Size)
		switch op := rng.Intn(10); {
		case op < 3:
			p := make([]byte, n)
			rng.Read(p)
			r.WriteAt(off, p)
			copy(f.b[off:], p)
			f.hiWater = max(f.hiWater, off+uint64(n))
		case op < 4:
			r.Zero(off, n)
			clear(f.b[off : off+uint64(n)])
		case op < 7:
			j := rng.Intn(2)
			soff := pick(rng, regs[j].Size)
			if j == i && rng.Intn(2) == 0 { // force an overlap
				soff = uint64(min(max(int64(off)+rng.Int63n(2*PageSize+1)-PageSize, 0), int64(r.Size)-1))
			}
			n = int(min(uint64(n), r.Size-off, regs[j].Size-soff))
			m.Copy(r.Base+Addr(off), regs[j].Base+Addr(soff), n)
			copy(f.b[off:off+uint64(n)], ref[j].b[soff:soff+uint64(n)])
			if n > 0 {
				f.hiWater = max(f.hiWater, off+uint64(n))
			}
		case op < 9:
			if v := m.View(r.Base+Addr(off), n); !bytes.Equal(v, f.b[off:off+uint64(n)]) {
				t.Errorf("step %d: View(%s+%d, %d) diverges from the flat model", step, r.Name, off, n)
				return false
			}
		default:
			ckpt := snapshotMap(t, m)
			ckpts, ckptCopies = append(ckpts, ckpt), append(ckptCopies, bytes.Clone(ckpt))
			m, a, b = newPagedMap()
			regs = [2]*Region{a, b}
			restoreMap(t, m, ckpt)
		}
		got := make([]byte, n)
		r.ReadAt(off, got)
		if !bytes.Equal(got, f.b[off:off+uint64(n)]) {
			t.Errorf("step %d: ReadAt(%s+%d, %d) diverges from the flat model", step, r.Name, off, n)
			return false
		}
	}
	for i, r := range regs {
		got := make([]byte, r.Size)
		r.ReadAt(0, got)
		if !bytes.Equal(got, ref[i].b) || r.hiWater != ref[i].hiWater {
			t.Errorf("region %s diverges from the flat model at the end of the script", r.Name)
			return false
		}
	}
	for k := range ckpts {
		if !bytes.Equal(ckpts[k], ckptCopies[k]) {
			t.Errorf("checkpoint %d was written through", k)
			return false
		}
	}
	return ZeroPageClean()
}

// TestPagedRegionMatchesFlat: reads, writes, zeroes, copies and views
// across page and block boundaries, over private, absent and restored
// (shared) pages, behave exactly like one eager byte slice — including
// overlapping same-region copies, which keep memmove semantics.
func TestPagedRegionMatchesFlat(t *testing.T) {
	f := func(seed int64) bool {
		return runScript(t, rand.New(rand.NewSource(seed)), 60)
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Fatal(err)
	}
}

// TestOverlappingCopyMemmove pins both overlap directions of a
// same-region copy whose spans cross a block boundary and a shared
// page.
func TestOverlappingCopyMemmove(t *testing.T) {
	for _, shift := range []int{-PageSize - 3, -5, 5, PageSize + 3} {
		m, a, _ := newPagedMap()
		ref := make([]byte, pagedSize)
		for i := range ref {
			ref[i] = byte(i*7 + i>>12)
		}
		a.WriteAt(0, ref)
		restoreMap(t, m, snapshotMap(t, m))
		a.WriteAt(cellSize+10, []byte{1}) // one private page among shared ones
		ref[cellSize+10] = 1
		src := uint64(cellSize - 2*PageSize)
		dst := uint64(int(src) + shift)
		n := 4*PageSize + 17
		m.Copy(a.Base+Addr(dst), a.Base+Addr(src), n)
		copy(ref[dst:dst+uint64(n)], ref[src:src+uint64(n)])
		got := make([]byte, pagedSize)
		a.ReadAt(0, got)
		if !bytes.Equal(got, ref) {
			t.Fatalf("shift %d: overlapping copy diverges from memmove", shift)
		}
	}
}

// TestZeroAbsentAllocatesNothing: clearing memory that was never
// written is free, and clearing a whole restored page drops it rather
// than copying it.
func TestZeroAbsentAllocatesNothing(t *testing.T) {
	m, a, _ := newPagedMap()
	if n := testing.AllocsPerRun(10, func() { a.Zero(PageSize/2, 2*cellSize) }); n != 0 {
		t.Fatalf("Zero over absent pages allocates %v per run", n)
	}
	for c := range a.cells {
		if a.cells[c].blk != nil {
			t.Fatalf("Zero over absent pages allocated cell %d", c)
		}
	}
	a.WriteAt(cellSize+PageSize, []byte{9})
	restoreMap(t, m, snapshotMap(t, m))
	if n := testing.AllocsPerRun(10, func() { a.Zero(cellSize, 3*PageSize) }); n != 0 {
		t.Fatalf("Zero over a whole shared page allocates %v per run", n)
	}
	if a.cells[1].blk != nil || a.nShared != 0 {
		t.Fatalf("Zero over a whole shared page copied it (blk %v, shared %d)", a.cells[1].blk != nil, a.nShared)
	}
}

// TestRestoredWriteLeavesCheckpoint: two maps restored from one
// checkpoint share its pages; the first write to a page takes a
// private copy, so neither the checkpoint nor the sibling sees it.
func TestRestoredWriteLeavesCheckpoint(t *testing.T) {
	m, a, _ := newPagedMap()
	orig := make([]byte, pagedSize)
	for i := range orig {
		orig[i] = byte(i*13 + 1)
	}
	a.WriteAt(0, orig)
	ckpt := snapshotMap(t, m)
	want := bytes.Clone(ckpt)

	m1, a1, b1 := newPagedMap()
	restoreMap(t, m1, ckpt)
	m2, a2, _ := newPagedMap()
	restoreMap(t, m2, ckpt)
	if a1.nShared == 0 {
		t.Fatal("restore copied the pages instead of sharing them")
	}
	a1.WriteAt(PageSize+5, []byte("private"))
	a1.Zero(3*PageSize+1, 10)
	m1.Copy(a1.Base+cellSize-3, b1.Base, 2*PageSize)
	_ = m1.View(a1.Base+2*cellSize-PageSize, 2*PageSize) // promotes across shared pages

	if !bytes.Equal(ckpt, want) {
		t.Fatal("a write to a restored map reached the checkpoint buffer")
	}
	got := make([]byte, pagedSize)
	a2.ReadAt(0, got)
	if !bytes.Equal(got, orig) {
		t.Fatal("a write to one restored map reached its sibling")
	}
	if v := m2.View(a2.Base+PageSize+5, 7); !bytes.Equal(v, orig[PageSize+5:PageSize+12]) {
		t.Fatal("sibling view sees the other fork's write")
	}
	a1.ReadAt(PageSize+5, got[:7])
	if string(got[:7]) != "private" {
		t.Fatalf("restored map lost its own write: %q", got[:7])
	}
}

// TestSparseEncodingMatchesFlat: a paged region's checkpoint encoding
// is byte-identical to the flat-slice encoder's over the same content
// and high-water mark, including after restores leave shared pages.
func TestSparseEncodingMatchesFlat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap()
		r := m.AddRegion("r", HostDRAM, pagedSize, true)
		ref := flat{b: make([]byte, pagedSize)}
		for step := 0; step < 30; step++ {
			off, n := span(rng, r.Size)
			switch rng.Intn(5) {
			case 0:
				r.Zero(off, n)
				clear(ref.b[off : off+uint64(n)])
			case 1:
				restoreMap(t, m, snapshotMap(t, m))
			default:
				p := make([]byte, n)
				if rng.Intn(3) > 0 { // zero-filled writes must not be captured
					rng.Read(p)
				}
				r.WriteAt(off, p)
				copy(ref.b[off:], p)
				ref.hiWater = max(ref.hiWater, off+uint64(n))
			}
		}
		c := snap.NewSaver(snap.Header{Version: snap.Version})
		c.Section("mem", func() error {
			c.Len("regions", 1)
			c.Expect("name", r.Name)
			c.Expect("size", r.Size)
			c.U64(&r.allocOff)
			c.U64(&ref.hiWater)
			c.SparseBytes(ref.b)
			return nil
		})
		if got, want := snapshotMap(t, m), c.Finish(); !bytes.Equal(got, want) {
			t.Errorf("seed %d: paged encoding (%d bytes) differs from the flat encoder (%d bytes)", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapSizeHintBounds: the up-front reservation covers the encoding.
func TestSnapSizeHintBounds(t *testing.T) {
	m, a, b := newPagedMap()
	a.WriteAt(cellSize-3, bytes.Repeat([]byte{1}, 2*PageSize))
	b.WriteAt(pagedSize-1, []byte{2})
	restoreMap(t, m, snapshotMap(t, m))
	a.WriteAt(5, []byte{3})
	c := snap.NewSaver(snap.Header{Version: snap.Version})
	if err := m.Snap(c); err != nil {
		t.Fatal(err)
	}
	if got, hint := len(c.Finish())-snap.HeaderSize-snap.DigestSize, m.SnapSizeHint(); got > hint {
		t.Fatalf("Snap saved %d bytes, hint reserved %d", got, hint)
	}
}
