package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution for the traced run. runtime/pprof writes a gzipped
// profile.proto; the reader below decodes the four messages the
// attribution needs (samples, locations, functions, string table), so
// the benchmark needs neither google/pprof nor a `go tool` subprocess.

// modules are the cpu_pct.<module> buckets, in report order.
var modules = []string{
	"sim", "sim_shard", "sim_snap", "mem", "pcie", "nvme", "nic", "ether",
	"hdc", "hostos", "ndp", "core", "apps", "workload", "trace", "bench",
	"runtime_sched", "runtime_gc", "other",
}

// internalPrefix marks the simulator's own packages.
const internalPrefix = "dcsctrl/internal/"

// internalModule maps a package path below dcsctrl/internal to its
// bucket; packages not listed (fault, gpu, fpga, report, lint) go to
// "other".
var internalModule = map[string]string{
	"sim": "sim", "sim/shard": "sim_shard", "sim/snap": "sim_snap",
	"mem": "mem", "pcie": "pcie", "nvme": "nvme", "nic": "nic",
	"ether": "ether", "hdc": "hdc", "hostos": "hostos", "ndp": "ndp",
	"core": "core", "apps": "apps", "workload": "workload",
	"trace": "trace", "bench": "bench",
}

// frameModule returns the bucket of one function name, or "" when the
// frame belongs to neither the simulator nor the benchmark itself.
func frameModule(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		pkg := pkgPath(fn)[len(internalPrefix):]
		if m, ok := internalModule[pkg]; ok {
			return m
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "dcsctrl/e2ebench"):
		return "bench" // this benchmark's own code
	}
	return ""
}

// pkgPath strips the function part of a qualified Go symbol:
// "a/b/c.(*T).M" -> "a/b/c".
func pkgPath(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcFrames are runtime functions that only the garbage collector runs.
var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*sweepLocked)",
	"runtime.(*mheap).reclaim", "runtime.wbBufFlush",
}

// bucket attributes one stack, innermost frame first, to a module:
// the innermost simulator (or benchmark) frame wins, so a memmove
// under mem.Copy counts as mem. Stacks with no such frame go to the
// garbage collector when a GC function is on them, to the scheduler
// when they are runtime-only, and to "other" otherwise.
func bucket(stack []string) string {
	for _, fn := range stack {
		if m := frameModule(fn); m != "" {
			return m
		}
	}
	runtimeOnly := len(stack) > 0
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime_sched"
	}
	return "other"
}

// attribute decodes a gzipped CPU profile and sums each sample's CPU
// nanoseconds (its last value) into its module's bucket.
func attribute(gz []byte) (map[string]int64, error) {
	stacks, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range stacks {
		out[bucket(s.frames)] += s.value
	}
	return out, nil
}

// profSample is one decoded sample: its stack, innermost function
// first, and its last value.
type profSample struct {
	frames []string
	value  int64
}

// parseProfile decodes the subset of profile.proto the attribution
// reads: Profile.sample (2), .location (4), .function (5) and
// .string_table (6).
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, profSample{frames: frames, value: int64(s.values[len(s.values)-1])})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints adds a repeated integer field's values: one varint
// when unpacked (b == nil), a run of varints when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
