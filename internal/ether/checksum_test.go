package ether

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// checksumSeed pins the differential test's random inputs.
const checksumSeed = 20180601

// refSum is the RFC 1071 reference: the ones'-complement checksum of
// acc plus b taken two bytes at a time, summed exactly in 64 bits and
// folded once at the end. It shares no code with sum16.
func refSum(b []byte, acc uint32) uint16 {
	s := uint64(acc)
	for i := 0; i+1 < len(b); i += 2 {
		s += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if len(b)%2 == 1 {
		s += uint64(b[len(b)-1]) << 8
	}
	for s>>16 != 0 {
		s = s&0xFFFF + s>>16
	}
	return ^uint16(s)
}

// TestChecksumRFC1071Example checks the worked example of RFC 1071
// §3: the bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2.
func TestChecksumRFC1071Example(t *testing.T) {
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := onesComplement(sum16(b, 0)); got != ^uint16(0xddf2) {
		t.Fatalf("checksum %#04x, want %#04x (sum ddf2)", got, ^uint16(0xddf2))
	}
	if got := refSum(b, 0); got != ^uint16(0xddf2) {
		t.Fatalf("reference checksum %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

// checksumInputs returns the differential test's data patterns at
// length n.
func checksumInputs(rng *rand.Rand, n int) map[string][]byte {
	zero := make([]byte, n)
	ones := make([]byte, n)
	sparse := make([]byte, n)
	random := make([]byte, n)
	for i := range ones {
		ones[i] = 0xFF
	}
	for i := 0; i < n; i += 1 + rng.Intn(97) {
		sparse[i] = byte(1 + rng.Intn(255))
	}
	rng.Read(random)
	return map[string][]byte{"zero": zero, "ones": ones, "sparse": sparse, "random": random}
}

// TestChecksumMatchesReference compares sum16+onesComplement with the
// two-bytes-at-a-time reference over every length 0–9100 (jumbo
// frames included, odd lengths included), four data patterns, and
// zero, small, and large starting accumulators.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(checksumSeed))
	for n := 0; n <= 9100; n++ {
		if testing.Short() && n > 200 && n%97 != 0 {
			continue
		}
		in := checksumInputs(rng, n)
		for _, name := range []string{"zero", "ones", "sparse", "random"} {
			b := in[name]
			for _, acc := range []uint32{0, 0xFFFF, rng.Uint32()} {
				if got, want := onesComplement(sum16(b, acc)), refSum(b, acc); got != want {
					t.Fatalf("len %d %s acc %#x: checksum %#04x, reference %#04x", n, name, acc, got, want)
				}
			}
		}
	}
}

// TestChecksumPseudoHeaderChain checks tcpChecksum's chaining (the
// pseudo-header sum fed in as the payload's starting accumulator)
// against the reference over the concatenated bytes, and that a frame
// carrying the computed checksum verifies to zero.
func TestChecksumPseudoHeaderChain(t *testing.T) {
	rng := rand.New(rand.NewSource(checksumSeed + 1))
	for _, n := range []int{TCPHeaderLen, TCPHeaderLen + 1, TCPHeaderLen + 7, TCPHeaderLen + MSS, TCPHeaderLen + 8999} {
		var src, dst IP
		rng.Read(src[:])
		rng.Read(dst[:])
		tcp := make([]byte, n)
		rng.Read(tcp)
		tcp[16], tcp[17] = 0, 0

		var pseudo [12]byte
		copy(pseudo[0:4], src[:])
		copy(pseudo[4:8], dst[:])
		pseudo[9] = ProtoTCP
		binary.BigEndian.PutUint16(pseudo[10:12], uint16(n))
		want := refSum(append(pseudo[:], tcp...), 0)
		got := tcpChecksum(src, dst, tcp)
		if got != want {
			t.Fatalf("len %d: tcp checksum %#04x, reference %#04x", n, got, want)
		}
		binary.BigEndian.PutUint16(tcp[16:18], got)
		if v := tcpChecksum(src, dst, tcp); v != 0 {
			t.Fatalf("len %d: filled-in segment verifies to %#04x, want 0", n, v)
		}
	}
}

// FuzzChecksum checks sum16+onesComplement against the reference on
// arbitrary bytes and starting accumulators.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint32(0xFFFFFFFF))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, b []byte, acc uint32) {
		if got, want := onesComplement(sum16(b, acc)), refSum(b, acc); got != want {
			t.Fatalf("len %d acc %#x: checksum %#04x, reference %#04x", len(b), acc, got, want)
		}
	})
}

// BenchmarkChecksum is the checksum kernel's layer probe: one MSS
// payload and one jumbo payload.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{1460, 9000} {
		data := make([]byte, n)
		rand.New(rand.NewSource(checksumSeed)).Read(data)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var sink uint16
			for i := 0; i < b.N; i++ {
				sink ^= onesComplement(sum16(data, 0))
			}
			checksumSink = sink
		})
	}
}

var checksumSink uint16
