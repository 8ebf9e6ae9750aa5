package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketSyntheticStacks(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // innermost first
	}{
		{"mem", []string{"runtime.memmove", "dcsctrl/internal/mem.(*Map).Copy", "dcsctrl/internal/pcie.(*Fabric).DMA", "dcsctrl/internal/sim.(*Env).Run"}},
		{"ndp", []string{"crypto/md5.block", "crypto/md5.(*digest).Write", "dcsctrl/internal/ndp.MD5.Update", "dcsctrl/internal/hdc.(*Engine).run"}},
		{"sim_shard", []string{"dcsctrl/internal/sim/shard.(*Kernel).merge", "dcsctrl/internal/sim/shard.(*Kernel).Run"}},
		{"sim_snap", []string{"dcsctrl/internal/sim/snap.fnv1a", "dcsctrl/internal/sim/snap.(*Writer).Bytes", "dcsctrl/internal/core.(*Cluster).Snapshot"}},
		{"sim", []string{"runtime.chansend1", "dcsctrl/internal/sim.(*Env).handoff", "dcsctrl/internal/nic.(*NIC).rx"}},
		{"hostos", []string{"dcsctrl/internal/hostos.(*Host).Exec.func1", "dcsctrl/internal/apps.(*SwiftSession).RunPhaseSeed.func1"}},
		{"core", []string{"runtime.mallocgc", "runtime.growslice", "dcsctrl/internal/core.(*hostConn).reserveStream"}},
		{"other", []string{"dcsctrl/internal/fault.(*Injector).Draw", "dcsctrl/internal/nvme.(*SSD).serve"}},
		{"bench", []string{"runtime.memequal", "bytes.Equal", "main.runRack"}},
		{"bench", []string{"dcsctrl/e2ebench.rackPayload", "dcsctrl/e2ebench.runRack"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"runtime_gc", []string{"runtime.(*sweepLocked).sweep", "runtime.bgsweep"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"other", []string{"syscall.Syscall", "os.(*File).Write", "runtime/pprof.profileWriter"}},
		{"other", nil},
	} {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFrameModuleCoversBuckets(t *testing.T) {
	known := map[string]bool{}
	for _, m := range modules {
		known[m] = true
	}
	for pkg, m := range internalModule {
		if !known[m] {
			t.Errorf("package %s maps to unreported bucket %s", pkg, m)
		}
	}
	if got := pkgPath("dcsctrl/internal/sim/shard.(*Kernel).Run"); got != "dcsctrl/internal/sim/shard" {
		t.Errorf("pkgPath = %s", got)
	}
}

// burn spins for d so the CPU profile has samples in this package.
//
//go:noinline
func burn(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var burnSink uint64

// A real runtime/pprof profile decodes and attributes its samples to
// the frames that burned the CPU; the buckets account for every
// sampled nanosecond.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnSink = burn(400 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Skip("profile has no samples")
	}
	cpu, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, sampled int64
	for _, ns := range cpu {
		total += ns
	}
	for _, s := range stacks {
		sampled += s.value
	}
	if total != sampled || total <= 0 {
		t.Fatalf("buckets hold %d ns of %d sampled", total, sampled)
	}
	if share := float64(cpu["bench"]) / float64(total); share < 0.5 {
		t.Errorf("burn loop got %.0f%% of samples in bench: %v", 100*share, cpu)
	}
}

// A hand-encoded profile with unpacked repeated fields and an inlined
// location (two lines, innermost first) decodes to the right stacks.
func TestParseProfileUnpacked(t *testing.T) {
	var p []byte
	field := func(dst []byte, num int, msg []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3|2)
		dst = binary.AppendUvarint(dst, uint64(len(msg)))
		return append(dst, msg...)
	}
	varint := func(dst []byte, num int, v uint64) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3)
		return binary.AppendUvarint(dst, v)
	}
	// Sample: location_id 1 then 2 (unpacked), values 1 and 10000.
	var s []byte
	s = varint(s, 1, 1)
	s = varint(s, 1, 2)
	s = varint(s, 2, 1)
	s = varint(s, 2, 10000)
	p = field(p, 2, s)
	// Location 1 inlines function 1 into function 2; location 2 is function 3.
	line := func(fn uint64) []byte { return varint(nil, 1, fn) }
	loc1 := varint(nil, 1, 1)
	loc1 = field(loc1, 4, line(1))
	loc1 = field(loc1, 4, line(2))
	p = field(p, 4, loc1)
	p = field(p, 4, field(varint(nil, 1, 2), 4, line(3)))
	for id, name := range []uint64{1, 2, 3} {
		p = field(p, 5, varint(varint(nil, 1, uint64(id+1)), 2, name))
	}
	for _, str := range []string{"", "runtime.memmove", "dcsctrl/internal/mem.(*Region).WriteAt", "main.main"} {
		p = field(p, 6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	stacks, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"runtime.memmove", "dcsctrl/internal/mem.(*Region).WriteAt", "main.main"}
	if len(stacks) != 1 || stacks[0].value != 10000 || len(stacks[0].frames) != 3 {
		t.Fatalf("stacks = %+v", stacks)
	}
	for i, fn := range want {
		if stacks[0].frames[i] != fn {
			t.Fatalf("frame %d = %s, want %s", i, stacks[0].frames[i], fn)
		}
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}
