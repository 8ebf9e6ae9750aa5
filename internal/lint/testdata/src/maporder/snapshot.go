// Snapshot-codec cases: checkpoint layouts walk map-keyed device
// state (queue pairs by QID, flash blocks by LBA) through snap.Codec's
// length-prefixed byte stream, where every byte's POSITION is
// meaningful — a restore replays the stream into a fresh cluster and
// CI compares the bytes against a golden artifact. Ranging the map
// while coding lets Go's randomized iteration order pick the byte
// order; the legal spellings are the collect/sort/index idiom and the
// codec's own sorted-key helpers (snap.Map, snap.Keyed).
package maporder

import (
	"sort"

	"dcsctrl/internal/sim/snap"
)

type qpState struct {
	sqHead int
	cqTail int
}

// saveQPsUnsorted codes queue pairs in map order: two snapshots of
// the same simulation produce different checkpoint bytes, and the
// restore overlay applies them in a different order.
func saveQPsUnsorted(c *snap.Codec, qps map[uint16]*qpState) {
	c.Len("qps", len(qps))
	for qid, qp := range qps {
		c.U16(&qid)       // want `snap codec c\.U16 inside a map range encodes map-keyed state in randomized order`
		c.Int(&qp.sqHead) // want `snap codec c\.Int inside a map range`
		c.Int(&qp.cqTail) // want `snap codec c\.Int inside a map range`
	}
}

// saveQPsSorted is the canonical collect/sort/index layout:
// deterministic bytes no matter the map's insertion history.
func saveQPsSorted(c *snap.Codec, qps map[uint16]*qpState) {
	qids := make([]uint16, 0, len(qps))
	for qid := range qps {
		qids = append(qids, qid)
	}
	sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
	c.Len("qps", len(qids))
	for _, qid := range qids {
		qp := qps[qid]
		c.U16(&qid)
		c.Int(&qp.sqHead)
		c.Int(&qp.cqTail)
	}
}

// snapQPsKeyed hands the ordering to the codec: snap.Keyed visits the
// keys ascending.
func snapQPsKeyed(c *snap.Codec, qps map[uint16]*qpState) error {
	return snap.Keyed(c, "qps", qps, func(_ uint16, qp *qpState) error {
		c.Int(&qp.sqHead)
		c.Int(&qp.cqTail)
		return nil
	})
}

// saveFlashUnsorted streams flash blocks in map order — same bug
// through a different coding method.
func saveFlashUnsorted(c *snap.Codec, flash map[uint64][]byte) {
	c.Len("flash", len(flash))
	for lba, blk := range flash {
		c.U64(&lba)   // want `snap codec c\.U64 inside a map range encodes map-keyed state in randomized order`
		c.Bytes(&blk) // want `snap codec c\.Bytes inside a map range`
	}
}

// saveSlotsUnsorted codes typed addresses through snap.Word, a snap
// function taking the codec as its first argument: the same bug.
func saveSlotsUnsorted(c *snap.Codec, slots map[string]uint64) {
	for _, a := range slots {
		snap.Word(c, &a) // want `snap codec snap\.Word\(c, \.\.\.\) inside a map range encodes map-keyed state in randomized order`
	}
}

// saveFlashSorted collects LBAs, sorts, and indexes back into the map
// while coding.
func saveFlashSorted(c *snap.Codec, flash map[uint64][]byte) {
	lbas := make([]uint64, 0, len(flash))
	for lba := range flash {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	c.Len("flash", len(lbas))
	for _, lba := range lbas {
		blk := flash[lba]
		c.U64(&lba)
		c.Bytes(&blk)
	}
}

// snapFlash is the one-method form: snap.Map sorts the keys on save
// and rebuilds the map on load, so nothing here ranges a map.
func snapFlash(c *snap.Codec, flash *map[uint64][]byte) {
	snap.Map(c, flash, (*snap.Codec).U64, (*snap.Codec).Bytes)
}

// countLoaded only queries the codec inside the range: Loading and Err
// code nothing, so iteration order cannot reach the bytes.
func countLoaded(c *snap.Codec, flash map[uint64][]byte) int {
	n := 0
	for range flash {
		if c.Loading() && c.Err() == nil {
			n++
		}
	}
	return n
}
