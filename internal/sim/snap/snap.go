// Package snap is the deterministic checkpoint codec: a versioned,
// length-prefixed binary format for snapshotting complete simulator
// state at quiescent instants and restoring it byte-for-byte
// (DESIGN.md §17).
//
// The format is deliberately dumb: a fixed header (magic, version,
// knob flags, configuration fingerprint), a sequence of named
// length-prefixed sections in a fixed order, and a trailing FNV-1a
// digest over everything before it. Every stateful type states its
// layout once, as a Snap(*Codec) error method that runs in either
// direction (see Codec). Encode order is fully deterministic — map-
// keyed state goes through Map/MapFunc, which sort the keys (the
// dcslint maporder analyzer enforces the idiom) — so the same
// simulator state always produces the same bytes, and checkpoint
// artifacts can be content-addressed and re-verified byte-for-byte.
//
// Everything rejects loudly: truncated buffers, bad magic, version or
// knob mismatches, misnamed sections, short or over-long section
// reads, and digest mismatches all surface as errors, never as
// silently wrong simulator state.
package snap

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Magic identifies a checkpoint buffer ("DCSS" little-endian).
const Magic uint32 = 0x53534344

// Version is the current format version. Readers refuse other
// versions: state layouts change with the models, and decoding an old
// checkpoint into new structs would corrupt a run silently.
const Version uint32 = 1

// Knob flag bits carried in the header. A checkpoint taken under one
// schedule-affecting knob setting cannot restore into an environment
// running another: the event timelines diverge from the first event.
const (
	FlagFusion       uint32 = 1 << 0 // zero-delay fusion enabled
	FlagHandlerProcs uint32 = 1 << 1 // always set; handler procs are the only model flavor
	FlagWireFlow     uint32 = 1 << 2 // flow-level wire fidelity
)

// Header is the fixed-size preamble of every checkpoint.
type Header struct {
	Version uint32
	Flags   uint32 // knob bits (FlagFusion | ...)
	Config  uint64 // configuration fingerprint (FNV-1a of the config string)
}

// HeaderSize is the encoded header: magic + version + flags + config.
const HeaderSize = 4 + 4 + 4 + 8

// DigestSize is the trailing FNV-1a 64-bit digest.
const DigestSize = 8

// Writer builds a checkpoint buffer. All integers are little-endian.
type Writer struct {
	buf      []byte
	secStart int // offset of the current section's length prefix (-1: none)
}

// NewWriter returns a writer with the header already encoded.
func NewWriter(h Header) *Writer {
	w := &Writer{secStart: -1}
	w.u32(Magic)
	w.u32(h.Version)
	w.u32(h.Flags)
	w.u64(h.Config)
	return w
}

func (w *Writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U8 encodes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 encodes a 16-bit integer.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 encodes a 32-bit integer.
func (w *Writer) U32(v uint32) { w.u32(v) }

// U64 encodes a 64-bit integer.
func (w *Writer) U64(v uint64) { w.u64(v) }

// I64 encodes a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.u64(uint64(v)) }

// Int encodes an int as a signed 64-bit integer.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool encodes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str encodes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes encodes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Section begins a named length-prefixed section. Sections cannot
// nest; the previous section must have been ended.
func (w *Writer) Section(name string) {
	if w.secStart >= 0 {
		panic("snap: Section inside an open section")
	}
	w.Str(name)
	w.secStart = len(w.buf)
	w.u32(0) // length placeholder, patched by EndSection
}

// EndSection closes the current section, patching its length prefix.
func (w *Writer) EndSection() {
	if w.secStart < 0 {
		panic("snap: EndSection without Section")
	}
	n := len(w.buf) - w.secStart - 4
	binary.LittleEndian.PutUint32(w.buf[w.secStart:], uint32(n))
	w.secStart = -1
}

// Finish appends the content digest and returns the checkpoint bytes.
// The writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	if w.secStart >= 0 {
		panic("snap: Finish with an open section")
	}
	w.u64(fnv1a(w.buf))
	return w.buf
}

// Grow ensures capacity for at least n more bytes. Layouts with a
// known payload size (a memory map's captured pages, a flash block
// count) call it so multi-megabyte sections append without repeated
// reallocation. Capacity grows at least geometrically, so a sequence
// of Grow calls recopies the checkpoint built so far only a
// logarithmic number of times.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	nb := make([]byte, len(w.buf), max(len(w.buf)+n, 2*cap(w.buf)))
	copy(nb, w.buf)
	w.buf = nb
}

// PageSize is the sparse image's page size.
const PageSize = 4096

// SparsePageBytes is the encoded size of one captured full page: its
// 4-byte index and its bytes.
const SparsePageBytes = 4 + PageSize

// SparseHeaderBytes is the encoded size of a sparse image's header.
const SparseHeaderBytes = 8 + 4

// A sparse image encodes a byte span as its non-zero PageSize pages:
// the span size, a page count, then (page index, raw page bytes)
// pairs in index order; the last page of a span whose size is not a
// page multiple is short. Decoders treat every uncaptured page as
// zero, so the image is authoritative for the whole span, not a
// patch. Writers emit the header and pages themselves (a paged memory
// region walks its page table); SparseBytes is the flat-slice form.

// SparseHeader encodes a sparse image's span size and page count.
func (w *Writer) SparseHeader(size uint64, pages int) {
	w.u64(size)
	w.u32(uint32(pages))
}

// SparsePage encodes captured page idx. Pages must be non-zero and
// arrive in ascending index order.
func (w *Writer) SparsePage(idx int, p []byte) {
	w.u32(uint32(idx))
	w.buf = append(w.buf, p...)
}

// SparseBytes encodes data as a sparse image.
func (w *Writer) SparseBytes(data []byte) {
	var idx []int
	for off := 0; off < len(data); off += PageSize {
		if !IsZero(pageAt(data, off)) {
			idx = append(idx, off/PageSize)
		}
	}
	w.SparseHeader(uint64(len(data)), len(idx))
	for _, i := range idx {
		w.SparsePage(i, pageAt(data, i*PageSize))
	}
}

func pageAt(data []byte, off int) []byte {
	return data[off:min(off+PageSize, len(data))]
}

// IsZero reports whether b is all zero, scanning one stream of 64-bit
// words four per iteration (comparing against a zero page via
// bytes.Equal loses here because it reads two streams).
func IsZero(b []byte) bool {
	for len(b) >= 32 {
		if binary.LittleEndian.Uint64(b)|
			binary.LittleEndian.Uint64(b[8:])|
			binary.LittleEndian.Uint64(b[16:])|
			binary.LittleEndian.Uint64(b[24:]) != 0 {
			return false
		}
		b = b[32:]
	}
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Reader decodes a checkpoint buffer. Errors are sticky: after the
// first failure every accessor returns a zero value and Err reports
// the original cause, so decode sequences need only one check.
type Reader struct {
	buf    []byte
	off    int
	err    error
	secEnd int // exclusive end of the current section (-1: none)
}

// Open validates the envelope (magic, digest, header length) and
// returns a reader positioned at the first section along with the
// decoded header.
func Open(data []byte) (*Reader, Header, error) { return open(data, true) }

// OpenTrusted is Open without the digest check, for snapshots that
// never left the process: a warm-fork grid restores the same
// in-memory buffer once per cell, and re-hashing tens of megabytes
// per fork costs a meaningful fraction of the restore itself. Buffers
// that crossed a file or the network must go through Open.
func OpenTrusted(data []byte) (*Reader, Header, error) { return open(data, false) }

func open(data []byte, verify bool) (*Reader, Header, error) {
	if len(data) < HeaderSize+DigestSize {
		return nil, Header{}, fmt.Errorf("snap: truncated checkpoint (%d bytes)", len(data))
	}
	body := data[:len(data)-DigestSize]
	if verify {
		want := binary.LittleEndian.Uint64(data[len(data)-DigestSize:])
		if got := fnv1a(body); got != want {
			return nil, Header{}, fmt.Errorf("snap: digest mismatch (corrupt checkpoint): got %#x want %#x", got, want)
		}
	}
	r := &Reader{buf: body, secEnd: -1}
	if m := r.u32(); m != Magic {
		return nil, Header{}, fmt.Errorf("snap: bad magic %#x", m)
	}
	h := Header{Version: r.u32(), Flags: r.u32(), Config: r.u64()}
	if r.err != nil {
		return nil, Header{}, r.err
	}
	if h.Version != Version {
		return nil, Header{}, fmt.Errorf("snap: version %d, this build reads %d", h.Version, Version)
	}
	return r, h, nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	lim := len(r.buf)
	if r.secEnd >= 0 {
		lim = r.secEnd
	}
	if n < 0 || r.off+n > lim {
		r.fail(fmt.Errorf("snap: truncated read of %d bytes at offset %d", n, r.off))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 decodes a 16-bit integer.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 decodes a 32-bit integer.
func (r *Reader) U32() uint32 { return r.u32() }

// U64 decodes a 64-bit integer.
func (r *Reader) U64() uint64 { return r.u64() }

// I64 decodes a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.u64()) }

// Int decodes an int encoded by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str decodes a length-prefixed string.
func (r *Reader) Str() string {
	n := r.u32()
	return string(r.take(int(n)))
}

// Bytes decodes a length-prefixed byte slice (a copy).
func (r *Reader) Bytes() []byte {
	n := r.u32()
	return append([]byte(nil), r.take(int(n))...)
}

// Section opens the next section, which must carry the given name.
func (r *Reader) Section(name string) error {
	if r.err != nil {
		return r.err
	}
	if r.secEnd >= 0 {
		r.fail(fmt.Errorf("snap: Section %q inside an open section", name))
		return r.err
	}
	got := r.Str()
	if r.err != nil {
		return r.err
	}
	if got != name {
		r.fail(fmt.Errorf("snap: section order mismatch: got %q, want %q", got, name))
		return r.err
	}
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if r.off+int(n) > len(r.buf) {
		r.fail(fmt.Errorf("snap: section %q length %d exceeds buffer", name, n))
		return r.err
	}
	r.secEnd = r.off + int(n)
	return nil
}

// EndSection closes the current section, verifying it was consumed
// exactly.
func (r *Reader) EndSection() error {
	if r.secEnd < 0 {
		r.fail(fmt.Errorf("snap: EndSection without Section"))
		return r.err
	}
	if r.err == nil && r.off != r.secEnd {
		r.fail(fmt.Errorf("snap: section consumed %d bytes short of its length", r.secEnd-r.off))
	}
	r.off = r.secEnd
	r.secEnd = -1
	return r.err
}

// SparseHeader decodes a sparse image header for a span of size
// bytes and returns its page count.
func (r *Reader) SparseHeader(size uint64) int {
	got := r.u64()
	n := int(r.u32())
	if r.err == nil && got != size {
		r.fail(fmt.Errorf("snap: sparse span size %d, destination %d", got, size))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// SparsePage decodes the next captured page of a span of size bytes
// whose previous page index was prev (-1 before the first). The page
// aliases the checkpoint buffer: callers must copy before writing.
func (r *Reader) SparsePage(prev int, size uint64) (int, []byte) {
	idx := int(r.u32())
	if r.err != nil {
		return 0, nil
	}
	if idx <= prev || uint64(idx)*PageSize >= size {
		r.fail(fmt.Errorf("snap: sparse page index %d out of order or range", idx))
		return 0, nil
	}
	return idx, r.take(int(min(PageSize, size-uint64(idx)*PageSize)))
}

// LoadSparseBytes decodes a SparseBytes span into dst as an exact
// image of the saved span regardless of dst's prior content: captured
// pages are copied in, and every other byte ends zero.
func (r *Reader) LoadSparseBytes(dst []byte) error {
	n := r.SparseHeader(uint64(len(dst)))
	next := 0 // first byte not yet written
	for i, prev := 0, -1; i < n && r.err == nil; i++ {
		idx, p := r.SparsePage(prev, uint64(len(dst)))
		if r.err != nil {
			break
		}
		clear(dst[next : idx*PageSize])
		next = idx*PageSize + copy(dst[idx*PageSize:], p)
		prev = idx
	}
	if r.err == nil {
		clear(dst[next:])
	}
	return r.err
}

// Alias decodes a length-prefixed byte slice without copying: the
// result aliases the checkpoint buffer, so the caller must copy
// before writing and must not let the buffer change while it lives.
func (r *Reader) Alias() []byte {
	n := r.u32()
	return r.take(int(n))
}

// Codec runs one checkpoint layout in either direction, so each type
// states its layout once — as a Snap(*Codec) error method — instead
// of as an encoder and a decoder that must agree. Every primitive
// takes a pointer: saving encodes the pointed-to value and never
// writes through the pointer; loading decodes into it. Setup-determined
// values (counts, names, cursors the restore target rebuilds by
// running the same setup) go through Expect/Len, which the save side
// writes and the load side verifies. Only state whose two sides really
// differ — sparse images, pool priming, maps rebuilt from the image,
// derived cursors — branches on Loading.
//
// Errors are sticky: after the first failure every primitive leaves
// its value untouched and Err reports the original cause, so a layout
// needs only one check at its end.
type Codec struct {
	w   *Writer // save mode
	r   *Reader // load mode
	err error   // save-mode failure (load mode keeps it in r)
}

// NewSaver returns a save-mode codec with the header already encoded.
func NewSaver(h Header) *Codec { return &Codec{w: NewWriter(h)} }

// NewLoader returns a load-mode codec reading from r (see Open).
func NewLoader(r *Reader) *Codec { return &Codec{r: r} }

// Loading reports whether the codec decodes into live state.
func (c *Codec) Loading() bool { return c.r != nil }

// Err returns the first failure, if any.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.err
	}
	return c.err
}

// Fail records err as the codec's failure unless one is already set;
// an error that wraps the recorded one replaces it, so context added
// on the way out is kept.
func (c *Codec) Fail(err error) {
	p := &c.err
	if c.r != nil {
		p = &c.r.err
	}
	if *p == nil || errors.Is(err, *p) {
		*p = err
	}
}

// Finish appends the digest and returns the checkpoint bytes of a
// save-mode codec.
func (c *Codec) Finish() []byte { return c.w.Finish() }

// Grow reserves capacity for n more saved bytes (see Writer.Grow).
func (c *Codec) Grow(n int) {
	if c.w != nil {
		c.w.Grow(n)
	}
}

// Section codes one named length-prefixed section whose content fn
// lays out. An error returned by fn becomes the codec's failure, and
// a failure inside the section is prefixed with its name. A codec
// that has already failed skips the section, so sections chain
// without checks in between.
func (c *Codec) Section(name string, fn func() error) error {
	if c.Err() != nil {
		return c.Err()
	}
	if c.w != nil {
		c.w.Section(name)
	} else if c.r.Section(name) != nil {
		return c.Err()
	}
	if err := fn(); err != nil {
		c.Fail(err)
	}
	if c.w != nil {
		c.w.EndSection()
	} else {
		c.r.EndSection()
	}
	if err := c.Err(); err != nil {
		c.Fail(fmt.Errorf("%s: %w", name, err))
	}
	return c.Err()
}

// code runs one primitive: put on save, get on load (stored only when
// the read succeeded).
func code[T any](c *Codec, v *T, put func(*Writer, T), get func(*Reader) T) {
	if c.w != nil {
		put(c.w, *v)
	} else if x := get(c.r); c.r.err == nil {
		*v = x
	}
}

// Word codes any 64-bit-wide integer type (sim.Time, mem.Addr, int)
// as eight little-endian bytes.
func Word[T ~int | ~int64 | ~uint64](c *Codec, v *T) {
	code(c, v, func(w *Writer, x T) { w.u64(uint64(x)) }, func(r *Reader) T { return T(r.u64()) })
}

// U16 codes a 16-bit integer.
func (c *Codec) U16(v *uint16) { code(c, v, (*Writer).U16, (*Reader).U16) }

// U32 codes a 32-bit integer.
func (c *Codec) U32(v *uint32) { code(c, v, (*Writer).U32, (*Reader).U32) }

// U64 codes a 64-bit integer.
func (c *Codec) U64(v *uint64) { Word(c, v) }

// I64 codes a signed 64-bit integer.
func (c *Codec) I64(v *int64) { Word(c, v) }

// Int codes an int as a signed 64-bit integer.
func (c *Codec) Int(v *int) { Word(c, v) }

// Bool codes a boolean as one byte.
func (c *Codec) Bool(v *bool) { code(c, v, (*Writer).Bool, (*Reader).Bool) }

// Str codes a length-prefixed string.
func (c *Codec) Str(v *string) { code(c, v, (*Writer).Str, (*Reader).Str) }

// Bytes codes a length-prefixed byte slice; load stores a copy.
func (c *Codec) Bytes(v *[]byte) { code(c, v, (*Writer).Bytes, (*Reader).Bytes) }

// Alias codes a length-prefixed byte slice like Bytes, but load
// stores a slice of the checkpoint buffer (see Reader.Alias).
func (c *Codec) Alias(v *[]byte) { code(c, v, (*Writer).Bytes, (*Reader).Alias) }

// Expect codes a setup-determined value: save writes live, load reads
// the image's value and fails with a labelled error unless it equals
// live. The encoding follows live's type (bool, uint16, uint32,
// uint64, int64, int, string), as the matching primitive would.
func (c *Codec) Expect(label string, live any) {
	switch v := live.(type) {
	case bool:
		expect(c, label, v, (*Codec).Bool)
	case uint16:
		expect(c, label, v, (*Codec).U16)
	case uint32:
		expect(c, label, v, (*Codec).U32)
	case uint64:
		expect(c, label, v, (*Codec).U64)
	case int64:
		expect(c, label, v, (*Codec).I64)
	case int:
		expect(c, label, v, (*Codec).Int)
	case string:
		expect(c, label, v, (*Codec).Str)
	default:
		panic(fmt.Sprintf("snap: Expect of unsupported type %T", live))
	}
}

func expect[T comparable](c *Codec, label string, live T, code func(*Codec, *T)) {
	got := live
	code(c, &got)
	if got != live {
		c.Fail(fmt.Errorf("%s: snapshot holds %v, live state has %v", label, got, live))
	}
}

// Len codes a setup-determined element count as a 32-bit Expect.
func (c *Codec) Len(label string, n int) { c.Expect(label, uint32(n)) }

// All lays out each part in order, stopping at the first failure.
func All(c *Codec, parts ...interface{ Snap(*Codec) error }) error {
	for _, p := range parts {
		if c.Err() != nil {
			break
		}
		if err := p.Snap(c); err != nil {
			c.Fail(err)
		}
	}
	return c.Err()
}

// Each codes a setup-determined list: the length is checked with Len,
// then every element lays itself out in order.
func Each[T interface{ Snap(*Codec) error }](c *Codec, label string, xs []T) error {
	c.Len(label, len(xs))
	for _, x := range xs {
		All(c, x)
	}
	return c.Err()
}

// Seq codes a slice as a 32-bit length and its elements in order. On
// load *s is refilled from the image, reusing its backing array.
func Seq[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := uint32(len(*s))
	c.U32(&n)
	if c.w != nil {
		for i := range *s {
			x := (*s)[i]
			elem(c, &x)
		}
		return
	}
	*s = (*s)[:0]
	for i := uint32(0); i < n && c.Err() == nil; i++ {
		*s = append(*s, *new(T))
		elem(c, &(*s)[i])
	}
}

// Map codes a map that load rebuilds from the image, in ascending key
// order (see MapFunc).
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, key func(*Codec, *K), val func(*Codec, *V)) {
	MapFunc(c, m, cmp.Compare[K], key, val)
}

// MapFunc codes a map as a 32-bit count and then each entry's key and
// value, keys in the order order sorts them, so the bytes never depend
// on Go's map iteration order. On load *m is replaced by a map rebuilt
// from the image.
func MapFunc[K comparable, V any](c *Codec, m *map[K]V, order func(a, b K) int, key func(*Codec, *K), val func(*Codec, *V)) {
	if c.w != nil {
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, order)
		c.w.U32(uint32(len(keys)))
		for _, k := range keys {
			v := (*m)[k]
			key(c, &k)
			val(c, &v)
		}
		return
	}
	n := int(c.r.U32())
	*m = make(map[K]V, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		var v V
		key(c, &k)
		val(c, &v)
		(*m)[k] = v
	}
}

// Keyed codes a map whose key set is setup-determined: the count and
// each key, ascending, are checked with Expect, and val lays out each
// entry's state in place.
func Keyed[K cmp.Ordered, V any](c *Codec, label string, m map[K]V, val func(K, V) error) error {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.Len(label, len(keys))
	for _, k := range keys {
		c.Expect(label+" key", k)
		if c.Err() != nil {
			break
		}
		if err := val(k, m[k]); err != nil {
			c.Fail(err)
		}
	}
	return c.Err()
}

// Page is one captured page of a sparse image.
type Page struct {
	Idx int
	B   []byte
}

// Sparse codes a sparse image of a size-byte span. Save encodes pages,
// the span's non-zero pages in ascending index order; load ignores
// pages and hands each decoded page to put, aliasing the checkpoint
// buffer (put must copy before writing).
func (c *Codec) Sparse(size uint64, pages []Page, put func(idx int, p []byte)) {
	if c.w != nil {
		c.w.SparseHeader(size, len(pages))
		for _, p := range pages {
			c.w.SparsePage(p.Idx, p.B)
		}
		return
	}
	for i, n, prev := 0, c.r.SparseHeader(size), -1; i < n && c.r.err == nil; i++ {
		if idx, p := c.r.SparsePage(prev, size); c.r.err == nil {
			put(idx, p)
			prev = idx
		}
	}
}

// SparseBytes codes data as a sparse image of a flat slice: save
// encodes it, load overwrites it with the exact saved image.
func (c *Codec) SparseBytes(data []byte) {
	if c.w != nil {
		c.w.SparseBytes(data)
	} else {
		c.r.LoadSparseBytes(data)
	}
}

// fnv1a computes a 64-bit FNV-1a-style digest of b, folding eight
// little-endian bytes per round with a byte-wise tail. Chunking
// changes the digest values relative to canonical byte-wise FNV-1a,
// which is fine — the digest only ever compares snapshots against
// snapshots — and makes hashing a multi-megabyte checkpoint ~8x
// cheaper, which matters because every save and every open pays it.
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= prime
		b = b[8:]
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// ContentHash returns the FNV-1a digest of data as a hex string, the
// content-address used in checkpoint artifact names.
func ContentHash(data []byte) string { return fmt.Sprintf("%016x", fnv1a(data)) }

// HashString fingerprints a configuration string for the header.
func HashString(s string) uint64 { return fnv1a([]byte(s)) }
