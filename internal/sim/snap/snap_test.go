package snap

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// testSeed pins the quick-check PRNG so failures reproduce exactly
// (the repo-wide convention from sim_test.go).
const testSeed = 1

// roundTripPayload is one randomly generated section payload: a mixed
// sequence of primitive values plus a sparse byte span.
type roundTripPayload struct {
	A   uint8
	B   uint16
	C   uint32
	D   uint64
	E   int64
	F   bool
	S   string
	Raw []byte
}

func encodePayload(w *Writer, p roundTripPayload, span []byte) {
	w.Section("payload")
	w.U8(p.A)
	w.U16(p.B)
	w.U32(p.C)
	w.U64(p.D)
	w.I64(p.E)
	w.Bool(p.F)
	w.Str(p.S)
	w.Bytes(p.Raw)
	w.SparseBytes(span)
	w.EndSection()
}

// TestEncodeDecodeEncodeByteEquality is the core codec property:
// encode → decode → re-encode must reproduce the identical bytes for
// arbitrary payloads, so checkpoints are content-addressable.
func TestEncodeDecodeEncodeByteEquality(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(testSeed)), MaxCount: 200}
	f := func(p roundTripPayload, pages []byte, hdrCfg uint64, flags uint32) bool {
		// Build a sparse span: a few KiB with the random bytes strewn
		// across page boundaries so zero and non-zero pages both occur.
		span := make([]byte, 3*4096+123)
		for i, b := range pages {
			span[(i*911)%len(span)] = b
		}
		w := NewWriter(Header{Version: Version, Flags: flags, Config: hdrCfg})
		encodePayload(w, p, span)
		data := w.Finish()

		r, h, err := Open(data)
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		if h.Flags != flags || h.Config != hdrCfg {
			return false
		}
		if err := r.Section("payload"); err != nil {
			return false
		}
		var q roundTripPayload
		q.A, q.B, q.C, q.D = r.U8(), r.U16(), r.U32(), r.U64()
		q.E, q.F, q.S, q.Raw = r.I64(), r.Bool(), r.Str(), r.Bytes()
		span2 := make([]byte, len(span))
		if err := r.LoadSparseBytes(span2); err != nil {
			return false
		}
		if err := r.EndSection(); err != nil {
			return false
		}
		if !bytes.Equal(span, span2) {
			return false
		}

		w2 := NewWriter(Header{Version: Version, Flags: flags, Config: hdrCfg})
		encodePayload(w2, q, span2)
		return bytes.Equal(data, w2.Finish())
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationRejected flips through every possible truncation point
// of a valid checkpoint: all must be rejected, either at Open (digest
// or envelope) or as a sticky reader error before the decode finishes.
func TestTruncationRejected(t *testing.T) {
	w := NewWriter(Header{Version: Version})
	w.Section("s")
	w.Str("hello")
	w.U64(42)
	w.EndSection()
	data := w.Finish()

	for n := 0; n < len(data); n++ {
		if _, _, err := Open(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestCorruptionRejected flips single bits across the buffer: every
// corruption must fail the digest check.
func TestCorruptionRejected(t *testing.T) {
	w := NewWriter(Header{Version: Version})
	w.Section("s")
	w.Bytes([]byte{1, 2, 3, 4})
	w.EndSection()
	data := w.Finish()

	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit += 3 {
			c := append([]byte(nil), data...)
			c[i] ^= 1 << bit
			if _, _, err := Open(c); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
}

// TestVersionRejected: a future version must be refused.
func TestVersionRejected(t *testing.T) {
	w := NewWriter(Header{Version: Version + 1})
	w.Section("s")
	w.EndSection()
	if _, _, err := Open(w.Finish()); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestSectionOrderEnforced: reading sections out of order fails.
func TestSectionOrderEnforced(t *testing.T) {
	w := NewWriter(Header{Version: Version})
	w.Section("a")
	w.U8(1)
	w.EndSection()
	w.Section("b")
	w.U8(2)
	w.EndSection()
	r, _, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("b"); err == nil {
		t.Fatal("out-of-order section accepted")
	}
}

// TestShortSectionConsumptionRejected: a Load that leaves bytes behind
// is a layout bug, not a tolerable condition.
func TestShortSectionConsumptionRejected(t *testing.T) {
	w := NewWriter(Header{Version: Version})
	w.Section("s")
	w.U64(1)
	w.U64(2)
	w.EndSection()
	r, _, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("s"); err != nil {
		t.Fatal(err)
	}
	_ = r.U64()
	if err := r.EndSection(); err == nil {
		t.Fatal("short consumption accepted")
	}
}

// TestOverReadStopsAtSectionEnd: reads past the section boundary fail
// rather than bleeding into the next section.
func TestOverReadStopsAtSectionEnd(t *testing.T) {
	w := NewWriter(Header{Version: Version})
	w.Section("a")
	w.U8(1)
	w.EndSection()
	w.Section("b")
	w.U64(7)
	w.EndSection()
	r, _, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("a"); err != nil {
		t.Fatal(err)
	}
	_ = r.U8()
	_ = r.U64() // crosses the boundary
	if r.Err() == nil {
		t.Fatal("over-read crossed section boundary")
	}
}

// TestSparseAuthoritative: LoadSparseBytes must zero pre-existing
// destination bytes that the snapshot recorded as zero.
func TestSparseAuthoritative(t *testing.T) {
	src := make([]byte, 2*4096)
	src[4096+5] = 0xAB // page 1 non-zero, page 0 all zero
	w := NewWriter(Header{Version: Version})
	w.Section("m")
	w.SparseBytes(src)
	w.EndSection()
	r, _, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("m"); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	dst[17] = 0xFF // stale byte in a zero page: must be cleared
	if err := r.LoadSparseBytes(dst); err != nil {
		t.Fatal(err)
	}
	if err := r.EndSection(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("sparse restore is not an authoritative image")
	}
}

// codecState exercises every Codec primitive and helper once.
type codecState struct {
	A    uint16
	B    uint32
	C    uint64
	D    int64
	E    int
	F    bool
	S    string
	Raw  []byte
	T    stamp // a named 64-bit type, coded through Word
	Seq  []uint64
	M    map[string]int64
	Span []byte
}

type stamp int64

const spanLen = 2*PageSize + 77

// layout is the single codec method of codecState.
func (s *codecState) layout(c *Codec) error {
	return c.Section("state", func() error {
		c.U16(&s.A)
		c.U32(&s.B)
		c.U64(&s.C)
		c.I64(&s.D)
		c.Int(&s.E)
		c.Bool(&s.F)
		c.Str(&s.S)
		c.Bytes(&s.Raw)
		Word(c, &s.T)
		Seq(c, &s.Seq, (*Codec).U64)
		Map(c, &s.M, (*Codec).Str, (*Codec).I64)
		c.SparseBytes(s.Span)
		c.Expect("setup name", "fixed")
		c.Len("setup count", 3)
		return nil
	})
}

// writeState encodes the same sequence with the Writer primitives.
func writeState(w *Writer, s *codecState) {
	w.Section("state")
	w.U16(s.A)
	w.U32(s.B)
	w.U64(s.C)
	w.I64(s.D)
	w.Int(s.E)
	w.Bool(s.F)
	w.Str(s.S)
	w.Bytes(s.Raw)
	w.I64(int64(s.T))
	w.U32(uint32(len(s.Seq)))
	for _, v := range s.Seq {
		w.U64(v)
	}
	keys := make([]string, 0, len(s.M))
	for k := range s.M {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Str(k)
		w.I64(s.M[k])
	}
	w.SparseBytes(s.Span)
	w.Str("fixed")
	w.U32(3)
	w.EndSection()
}

func (s *codecState) clone() *codecState {
	d := *s
	d.Raw = append([]byte(nil), s.Raw...)
	d.Seq = append([]uint64(nil), s.Seq...)
	d.M = maps.Clone(s.M)
	d.Span = append([]byte(nil), s.Span...)
	return &d
}

// equal compares field by field, treating nil and empty alike.
func (s *codecState) equal(o *codecState) bool {
	return s.A == o.A && s.B == o.B && s.C == o.C && s.D == o.D && s.E == o.E &&
		s.F == o.F && s.S == o.S && bytes.Equal(s.Raw, o.Raw) && s.T == o.T &&
		slices.Equal(s.Seq, o.Seq) && maps.Equal(s.M, o.M) && bytes.Equal(s.Span, o.Span)
}

func randomState(rng *rand.Rand) *codecState {
	s := &codecState{
		A: uint16(rng.Uint32()), B: rng.Uint32(), C: rng.Uint64(), D: rng.Int63() - rng.Int63(),
		E: rng.Int() - rng.Int(), F: rng.Intn(2) == 1, S: fmt.Sprint(rng.Int63()),
		Raw: make([]byte, rng.Intn(40)), T: stamp(rng.Int63()),
		M: map[string]int64{}, Span: make([]byte, spanLen),
	}
	rng.Read(s.Raw)
	for i := rng.Intn(6); i > 0; i-- {
		s.Seq = append(s.Seq, rng.Uint64())
		s.M[fmt.Sprint("k", rng.Intn(1000))] = rng.Int63()
	}
	for i := rng.Intn(20); i > 0; i-- {
		s.Span[rng.Intn(spanLen)] = byte(rng.Intn(256))
	}
	return s
}

func saveState(t *testing.T, s *codecState) []byte {
	t.Helper()
	c := NewSaver(Header{Version: Version})
	if err := s.layout(c); err != nil {
		t.Fatal(err)
	}
	return c.Finish()
}

func loadState(t *testing.T, data []byte, into *codecState) error {
	t.Helper()
	r, _, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	return into.layout(NewLoader(r))
}

// TestCodecRoundTrip: every primitive and helper round-trips
// save → load, the save leaves the pointed-to values unchanged, and
// the bytes equal what the Writer primitives emit for the same
// sequence.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(testSeed))
	for i := 0; i < 200; i++ {
		src := randomState(rng)
		before := src.clone()
		data := saveState(t, src)
		if !src.equal(before) {
			t.Fatalf("case %d: save changed the state it coded", i)
		}
		w := NewWriter(Header{Version: Version})
		writeState(w, before)
		if !bytes.Equal(data, w.Finish()) {
			t.Fatalf("case %d: codec bytes differ from the Writer's", i)
		}
		dst := randomState(rng) // stale content everywhere: load must overwrite it
		if err := loadState(t, data, dst); err != nil {
			t.Fatalf("case %d: load: %v", i, err)
		}
		if !dst.equal(src) {
			t.Fatalf("case %d: round trip lost state:\n got %+v\nwant %+v", i, dst, src)
		}
	}
}

// TestCodecExpectMismatch: a setup-determined value that differs
// between the image and the live state fails the load with an error
// naming its label, on either helper.
func TestCodecExpectMismatch(t *testing.T) {
	for _, tc := range []struct {
		label string
		code  func(c *Codec, live int)
	}{
		{"connection count", func(c *Codec, live int) { c.Len("connection count", live) }},
		{"placement cursor", func(c *Codec, live int) { c.Expect("placement cursor", live) }},
		{"region name", func(c *Codec, live int) { c.Expect("region name", fmt.Sprint("r", live)) }},
	} {
		c := NewSaver(Header{Version: Version})
		tc.code(c, 4)
		r, _, err := Open(c.Finish())
		if err != nil {
			t.Fatal(err)
		}
		lc := NewLoader(r)
		tc.code(lc, 3)
		if err := lc.Err(); err == nil || !strings.Contains(err.Error(), tc.label) {
			t.Fatalf("%s: load against a different live value returned %v", tc.label, err)
		}
	}
}

// TestCodecErrorsSticky: after the first failure every primitive
// leaves its value untouched, later failures do not replace the
// first, and later sections are skipped.
func TestCodecErrorsSticky(t *testing.T) {
	c := NewSaver(Header{Version: Version})
	c.Section("a", func() error {
		c.Len("slots", 2)
		v := uint64(7)
		c.U64(&v)
		return nil
	})
	r, _, err := Open(c.Finish())
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLoader(r)
	v := uint64(99)
	err = lc.Section("a", func() error {
		lc.Len("slots", 5)
		lc.U64(&v)
		lc.Fail(fmt.Errorf("a later failure"))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "slots") || strings.Contains(err.Error(), "later") {
		t.Fatalf("first failure not kept: %v", err)
	}
	if v != 99 {
		t.Fatalf("primitive after a failure overwrote its value: %d", v)
	}
	ran := false
	if lc.Section("b", func() error { ran = true; return nil }) != lc.Err() || ran {
		t.Fatal("section after a failure ran")
	}
}
