package dcsctrl_test

import (
	"bytes"
	"crypto/md5"
	"testing"

	"dcsctrl"
	"dcsctrl/internal/fault"
)

// runTransferPair stages a file, GETs it (server SendFile → client),
// then PUTs fresh content (client → server RecvFile), verifying both
// payloads and MD5 digests end to end. It is the workhorse of the
// fault-recovery tests: every byte crosses the faulty device models.
func runTransferPair(t *testing.T, tb *dcsctrl.Testbed, size int) {
	t.Helper()
	getContent := payload(size)
	f, err := tb.StageFile("get-obj", getContent)
	if err != nil {
		t.Fatal(err)
	}
	conn := tb.OpenConnection(true)

	var getRes dcsctrl.OpResult
	var getErr error
	var clientGot []byte
	tb.Go("server-get", func(p *dcsctrl.Proc) {
		getRes, getErr = tb.SendFile(p, f, 0, size, conn, dcsctrl.ProcMD5)
	})
	tb.Go("client-get", func(p *dcsctrl.Proc) {
		clientGot = tb.ClientRecv(p, conn, size)
	})
	tb.Run()
	if getErr != nil {
		t.Fatalf("GET failed: %v", getErr)
	}
	if !bytes.Equal(clientGot, getContent) {
		t.Fatal("GET payload corrupted")
	}
	wantGet := md5.Sum(getContent)
	if !bytes.Equal(getRes.Digest, wantGet[:]) {
		t.Fatalf("GET digest mismatch: got %x want %x", getRes.Digest, wantGet)
	}

	putContent := make([]byte, size)
	for i := range putContent {
		putContent[i] = byte(i*7 + 129)
	}
	dst, err := tb.CreateFile("put-obj", size)
	if err != nil {
		t.Fatal(err)
	}
	var putRes dcsctrl.OpResult
	var putErr error
	tb.Go("server-put", func(p *dcsctrl.Proc) {
		putRes, putErr = tb.RecvFile(p, conn, dst, 0, size, dcsctrl.ProcMD5)
	})
	tb.Go("client-put", func(p *dcsctrl.Proc) {
		tb.ClientSend(p, conn, putContent)
	})
	tb.Run()
	if putErr != nil {
		t.Fatalf("PUT failed: %v", putErr)
	}
	if got := tb.ReadBack(dst); !bytes.Equal(got, putContent) {
		t.Fatal("PUT payload corrupted on SSD")
	}
	wantPut := md5.Sum(putContent)
	if !bytes.Equal(putRes.Digest, wantPut[:]) {
		t.Fatalf("PUT digest mismatch: got %x want %x", putRes.Digest, wantPut)
	}
}

// TestFaultRecoveryAcrossConfigs exercises every server design under
// the light and heavy fault profiles: transfers must complete with
// correct bytes and digests despite injected PCIe, NVMe, and NIC
// faults, because each device's recovery machinery absorbs them.
func TestFaultRecoveryAcrossConfigs(t *testing.T) {
	configs := []dcsctrl.Config{dcsctrl.Vanilla, dcsctrl.SWOpt, dcsctrl.SWP2P, dcsctrl.DCSCtrl}
	for _, profile := range []dcsctrl.FaultProfile{fault.Light(), fault.Heavy()} {
		for _, cfg := range configs {
			t.Run(profile.Name+"/"+cfg.String(), func(t *testing.T) {
				tb := dcsctrl.NewTestbed(cfg, dcsctrl.WithFaults(42, profile))
				defer tb.Close()
				runTransferPair(t, tb, 512<<10)
				if profile.Name == "heavy" && tb.Faults().TotalInjected() == 0 {
					t.Error("heavy profile injected no faults (injection sites not wired?)")
				}
			})
		}
	}
}

// TestRetriesVisibleInBreakdown forces two poisoned completions on the
// first D2D command: the driver must re-issue it with backoff charged
// to the "retry" trace category, and the op must still succeed.
func TestRetriesVisibleInBreakdown(t *testing.T) {
	poison := dcsctrl.FaultProfile{
		Name:  "poison-twice",
		Rules: map[fault.Site]fault.Rule{fault.HDCPoisonCpl: {Prob: 1, Limit: 2}},
	}
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithFaults(7, poison))
	defer tb.Close()
	content := payload(128 << 10)
	f, err := tb.StageFile("obj", content)
	if err != nil {
		t.Fatal(err)
	}
	conn := tb.OpenConnection(true)
	var res dcsctrl.OpResult
	var opErr error
	tb.Go("server", func(p *dcsctrl.Proc) {
		res, opErr = tb.SendFile(p, f, 0, len(content), conn, dcsctrl.ProcMD5)
	})
	tb.Go("client", func(p *dcsctrl.Proc) { tb.ClientRecv(p, conn, len(content)) })
	tb.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
	want := md5.Sum(content)
	if !bytes.Equal(res.Digest, want[:]) {
		t.Fatalf("digest mismatch after retries: got %x want %x", res.Digest, want)
	}
	if retry := res.Breakdown.Get(dcsctrl.Category("retry")); retry <= 0 {
		t.Error("no retry time in the breakdown")
	}
	rs := tb.ServerRecoveryStats()
	if rs.DriverRetries != 2 {
		t.Errorf("driver retries = %d, want 2", rs.DriverRetries)
	}
	if rs.EngineFailed {
		t.Error("engine wrongly declared failed")
	}
}

// TestEngineFailureFallsBackToHost kills the engine on its first
// command: the driver watchdog must detect the hang, the node must
// adopt the engine's connections into the host stack, and both the
// in-flight op and subsequent ops must complete on the host-mediated
// path with correct digests.
func TestEngineFailureFallsBackToHost(t *testing.T) {
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithFaults(1, fault.EngineFail()))
	defer tb.Close()
	runTransferPair(t, tb, 256<<10)
	rs := tb.ServerRecoveryStats()
	if !rs.EngineFailed {
		t.Error("engine not declared failed")
	}
	if rs.DriverTimeouts < 1 {
		t.Errorf("driver timeouts = %d, want >= 1", rs.DriverTimeouts)
	}
	if rs.Fallbacks < 2 {
		t.Errorf("fallbacks = %d, want >= 2 (GET and PUT)", rs.Fallbacks)
	}
}

// TestSwiftCompletesUnderFaults runs the object-storage workload on
// every configuration with the light fault profile: all requests must
// complete without application-visible errors.
func TestSwiftCompletesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config workload run")
	}
	for _, cfg := range []dcsctrl.Config{dcsctrl.Vanilla, dcsctrl.SWOpt, dcsctrl.SWP2P, dcsctrl.DCSCtrl} {
		t.Run(cfg.String(), func(t *testing.T) {
			tb := dcsctrl.NewTestbed(cfg, dcsctrl.WithFaults(99, fault.Light()))
			defer tb.Close()
			sc := dcsctrl.DefaultSwiftConfig()
			sc.Conns = 4
			sc.Warmup = 1 * dcsctrl.Millisecond
			sc.Duration = 8 * dcsctrl.Millisecond
			res, err := tb.RunSwift(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests == 0 {
				t.Fatal("no requests completed")
			}
			if res.Errors != 0 {
				t.Fatalf("%d request errors under fault injection", res.Errors)
			}
		})
	}
}

// TestHDFSCompletesUnderFaults runs the balancer workload (DCS-ctrl on
// both nodes) with the light profile.
func TestHDFSCompletesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl,
		dcsctrl.WithClientConfig(dcsctrl.DCSCtrl),
		dcsctrl.WithFaults(5, fault.Light()))
	defer tb.Close()
	hc := dcsctrl.DefaultHDFSConfig()
	hc.Warmup = 1 * dcsctrl.Millisecond
	hc.Duration = 8 * dcsctrl.Millisecond
	res, err := tb.RunHDFS(hc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 {
		t.Fatal("no blocks moved")
	}
}
