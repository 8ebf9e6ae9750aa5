package main

import (
	"os"
	"os/exec"
	"testing"
)

// pinEnv names the workload a re-executed test binary runs.
const pinEnv = "E2EBENCH_PIN_WORKLOAD"

// TestPins runs batch 0 of every workload at seed 0 and requires the
// pinned fingerprint. Each workload runs in its own process, as in the
// benchmark, so the simulations' memory is returned between them.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestPinChild$", "-test.v")
			cmd.Env = append(os.Environ(), pinEnv+"="+w.name)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
		})
	}
}

// TestPinChild is the re-executed half of TestPins.
func TestPinChild(t *testing.T) {
	name := os.Getenv(pinEnv)
	if name == "" {
		t.Skip("run by TestPins")
	}
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	r := newRep(0, false)
	if err := w.run(r, 0, true); err != nil {
		t.Fatal(err)
	}
	if r.out.Fingerprint != pins[name][0] {
		t.Errorf("fingerprint %s, pinned %s", r.out.Fingerprint, pins[name][0])
	}
	for _, p := range r.out.Problems {
		t.Error(p)
	}
	if r.out.Ops == 0 || r.out.Failed != 0 {
		t.Errorf("%d operations, %d failed", r.out.Ops, r.out.Failed)
	}
}

// A fingerprint that differs from its pin at seed 0 is a failed check;
// at any other seed there is no pin.
func TestCheckPin(t *testing.T) {
	r := newRep(0, false)
	checkPin(r, "rack-alltoall", 0, 0, pins["rack-alltoall"][0])
	if len(r.out.Problems) != 0 {
		t.Fatalf("pinned fingerprint reported: %q", r.out.Problems)
	}
	checkPin(r, "rack-alltoall", 0, 0, "0000")
	if len(r.out.Problems) != 1 {
		t.Fatalf("mismatch not reported: %q", r.out.Problems)
	}
	checkPin(r, "rack-alltoall", 3, 0, "0000")
	if len(r.out.Problems) != 1 || r.out.Fingerprint != "0000" {
		t.Fatalf("unpinned seed checked: %q", r.out.Problems)
	}
	for _, w := range workloads {
		if len(pins[w.name]) != w.batches {
			t.Errorf("%s: %d pins for %d batches", w.name, len(pins[w.name]), w.batches)
		}
	}
}
