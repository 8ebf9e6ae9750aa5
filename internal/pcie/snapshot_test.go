package pcie

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// saveFabric checkpoints a rig's fabric into a standalone image.
func saveFabric(t *testing.T, r *rig) []byte {
	t.Helper()
	c := snap.NewSaver(snap.Header{Version: snap.Version})
	if err := r.fab.Snap(c); err != nil {
		t.Fatal(err)
	}
	return c.Finish()
}

// loadFabric restores an image into a freshly built rig.
func loadFabric(t *testing.T, img []byte) (*rig, error) {
	t.Helper()
	rd, _, err := snap.OpenTrusted(img)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig()
	return r, r.fab.Snap(snap.NewLoader(rd))
}

func TestSnapLoadRejectsRetiredClocks(t *testing.T) {
	src := newRig()
	src.env.Spawn("dma", func(p *sim.Proc) {
		src.fab.MustDMA(p, src.ssd, src.dram.Base, src.ssdBuf.Base, 4096)
		src.fab.MustDMA(p, src.hdc, src.vram.Base, src.ddr3.Base, 2048)
	})
	src.env.Run(-1)
	img := saveFabric(t, src)

	dst, err := loadFabric(t, img)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if dst.fab.HostBytes() != src.fab.HostBytes() || dst.fab.P2PBytes() != src.fab.P2PBytes() ||
		dst.ssd.BytesOut() != src.ssd.BytesOut() || dst.gpu.BytesIn() != src.gpu.BytesIn() {
		t.Fatalf("round trip lost counters: host %d/%d p2p %d/%d",
			dst.fab.HostBytes(), src.fab.HostBytes(), dst.fab.P2PBytes(), src.fab.P2PBytes())
	}
	if again := saveFabric(t, dst); !bytes.Equal(again, img) {
		t.Fatal("re-saved image differs from the original")
	}

	// The retired words: the switch-core clock right after the header
	// and postedClock, and a port's up-link clock right after its name.
	hdr := snap.HeaderSize
	cases := []struct {
		what string
		off  int
	}{
		{"switch-core clock", hdr + 8},
		{"up-link clock", bytes.Index(img, []byte("nvme-ssd")) + len("nvme-ssd")},
	}
	for _, c := range cases {
		what, off := c.what, c.off
		bad := append([]byte(nil), img...)
		if binary.LittleEndian.Uint64(bad[off:]) != 0 {
			t.Fatalf("%s: image holds a nonzero word at offset %d", what, off)
		}
		binary.LittleEndian.PutUint64(bad[off:], 1)
		if _, err := loadFabric(t, bad); err == nil || !strings.Contains(err.Error(), what) {
			t.Fatalf("%s: load of a nonzero retired word returned %v", what, err)
		}
	}
}
