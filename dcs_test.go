package dcsctrl_test

import (
	"bytes"
	"crypto/md5"
	"testing"

	"dcsctrl"
)

func payload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*11 + 3)
	}
	return out
}

func TestQuickstartFlow(t *testing.T) {
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
	defer tb.Close()
	content := payload(128 << 10)
	f, err := tb.StageFile("obj", content)
	if err != nil {
		t.Fatal(err)
	}
	conn := tb.OpenConnection(true)
	var res dcsctrl.OpResult
	var got []byte
	tb.Go("server", func(p *dcsctrl.Proc) {
		res, err = tb.SendFile(p, f, 0, len(content), conn, dcsctrl.ProcMD5)
	})
	tb.Go("client", func(p *dcsctrl.Proc) {
		got = tb.ClientRecv(p, conn, len(content))
	})
	tb.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := md5.Sum(content)
	if !bytes.Equal(res.Digest, want[:]) {
		t.Fatalf("digest = %x", res.Digest)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("payload mismatch")
	}
	if res.Latency <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestUploadFlow(t *testing.T) {
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
	defer tb.Close()
	content := payload(96 << 10)
	f, err := tb.CreateFile("upload", len(content))
	if err != nil {
		t.Fatal(err)
	}
	conn := tb.OpenConnection(true)
	tb.Go("client", func(p *dcsctrl.Proc) {
		tb.ClientSend(p, conn, content)
	})
	tb.Go("server", func(p *dcsctrl.Proc) {
		if _, err := tb.RecvFile(p, conn, f, 0, len(content), dcsctrl.ProcCRC32); err != nil {
			t.Error(err)
		}
	})
	tb.Run()
	if got := tb.ReadBack(f); !bytes.Equal(got, content) {
		t.Fatal("flash contents differ")
	}
}

func TestAllConfigsThroughFacade(t *testing.T) {
	content := payload(64 << 10)
	for _, kind := range []dcsctrl.Config{
		dcsctrl.Vanilla, dcsctrl.SWOpt, dcsctrl.SWP2P, dcsctrl.DevIntegration, dcsctrl.DCSCtrl,
	} {
		tb := dcsctrl.NewTestbed(kind)
		f, err := tb.StageFile("obj", content)
		if err != nil {
			t.Fatal(err)
		}
		conn := tb.OpenConnection(true)
		var got []byte
		tb.Go("server", func(p *dcsctrl.Proc) {
			if _, err := tb.SendFile(p, f, 0, len(content), conn, dcsctrl.ProcNone); err != nil {
				t.Error(kind, err)
			}
		})
		tb.Go("client", func(p *dcsctrl.Proc) {
			got = tb.ClientRecv(p, conn, len(content))
		})
		tb.Run()
		tb.Close()
		if !bytes.Equal(got, content) {
			t.Fatalf("%v: payload mismatch", kind)
		}
	}
}

func TestFPGABudgetExposure(t *testing.T) {
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
	defer tb.Close()
	budget := tb.FPGABudget()
	if budget == nil {
		t.Fatal("no budget on DCS testbed")
	}
	luts, _, brams, _ := budget.Totals()
	if luts < 116344 || brams < 442 {
		t.Fatalf("budget below base design: %d LUTs, %d BRAMs", luts, brams)
	}
	if dcsctrl.NewTestbed(dcsctrl.SWOpt).FPGABudget() != nil {
		t.Fatal("non-DCS testbed reports a budget")
	}
}

func TestServerAccounting(t *testing.T) {
	tb := dcsctrl.NewTestbed(dcsctrl.SWOpt)
	defer tb.Close()
	content := payload(64 << 10)
	f, _ := tb.StageFile("obj", content)
	conn := tb.OpenConnection(true)
	tb.Go("server", func(p *dcsctrl.Proc) {
		tb.SendFile(p, f, 0, len(content), conn, dcsctrl.ProcNone)
	})
	tb.Go("client", func(p *dcsctrl.Proc) { tb.ClientRecv(p, conn, len(content)) })
	tb.Run()
	if tb.ServerUtilization() <= 0 {
		t.Fatal("no utilization recorded")
	}
	if len(tb.ServerBusy()) == 0 {
		t.Fatal("no busy categories")
	}
	tb.ResetServerAccounting()
	if tb.ServerUtilization() != 0 {
		t.Fatal("reset did not clear accounting")
	}
}

func TestScalabilityProjection(t *testing.T) {
	sc, err := dcsctrl.NewScalability(9.0, 0.30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.CoresAt(40); got < 7.9 || got > 8.1 {
		t.Fatalf("cores at 40G = %v, want 8", got)
	}
	if got := sc.MaxGbps(6, 40); got < 29.9 || got > 30.1 {
		t.Fatalf("max = %v, want 30", got)
	}
	if got := sc.MaxGbps(60, 40); got != 40 {
		t.Fatalf("wire cap broken: %v", got)
	}
	if _, err := dcsctrl.NewScalability(0, 0.3, 6); err == nil {
		t.Fatal("bad operating point accepted")
	}
	curve := sc.Curve(40, 4)
	if len(curve) != 5 || curve[4][0] != 40 {
		t.Fatalf("curve = %v", curve)
	}
}

func TestWorkloadsThroughFacade(t *testing.T) {
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithClientConfig(dcsctrl.DCSCtrl))
	defer tb.Close()
	cfg := dcsctrl.DefaultHDFSConfig()
	cfg.Streams = 2
	cfg.BlockSize = 256 << 10
	cfg.Warmup = 1 * dcsctrl.Millisecond
	cfg.Duration = 5 * dcsctrl.Millisecond
	res, err := tb.RunHDFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 || res.Gbps <= 0 {
		t.Fatalf("blocks=%d gbps=%v", res.Blocks, res.Gbps)
	}
}

func TestCustomParams(t *testing.T) {
	params := dcsctrl.DefaultParams()
	params.SSD.ReadLatency = 100 * dcsctrl.Microsecond // a much slower SSD
	slow := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithParams(params))
	defer slow.Close()
	fast := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
	defer fast.Close()
	run := func(tb *dcsctrl.Testbed) dcsctrl.Time {
		content := payload(4096)
		f, _ := tb.StageFile("obj", content)
		conn := tb.OpenConnection(true)
		var res dcsctrl.OpResult
		tb.Go("server", func(p *dcsctrl.Proc) {
			res, _ = tb.SendFile(p, f, 0, len(content), conn, dcsctrl.ProcNone)
		})
		tb.Go("client", func(p *dcsctrl.Proc) { tb.ClientRecv(p, conn, len(content)) })
		tb.Run()
		return res.Latency
	}
	if ls, lf := run(slow), run(fast); ls <= lf+50*dcsctrl.Microsecond {
		t.Fatalf("slow SSD (%v) not slower than fast (%v)", ls, lf)
	}
}

func TestCopyFileFacade(t *testing.T) {
	params := dcsctrl.DefaultParams()
	params.NumSSDs = 2
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithParams(params))
	defer tb.Close()
	content := payload(128 << 10)
	src, err := tb.StageFile("src", content)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := tb.CreateFile("dst", len(content))
	if err != nil {
		t.Fatal(err)
	}
	tb.Go("migrator", func(p *dcsctrl.Proc) {
		if _, err := tb.CopyFile(p, src, 0, dst, 0, len(content), dcsctrl.ProcNone); err != nil {
			t.Error(err)
		}
	})
	tb.Run()
	if !bytes.Equal(tb.ReadBack(dst), content) {
		t.Fatal("copy mismatch")
	}
	// Copying on a non-DCS server is rejected.
	sw := dcsctrl.NewTestbed(dcsctrl.SWOpt)
	defer sw.Close()
	f1, _ := sw.StageFile("a", content)
	f2, _ := sw.CreateFile("b", len(content))
	sw.Go("bad", func(p *dcsctrl.Proc) {
		if _, err := sw.CopyFile(p, f1, 0, f2, 0, len(content), dcsctrl.ProcNone); err == nil {
			t.Error("CopyFile on SWOpt succeeded")
		}
	})
	sw.Run()
}

func TestEncryptedSendFacade(t *testing.T) {
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
	defer tb.Close()
	if err := tb.ProvisionAESKey(7, [32]byte{0x5c}); err != nil {
		t.Fatal(err)
	}
	content := payload(64 << 10)
	f, _ := tb.StageFile("obj", content)
	conn := tb.OpenConnection(true)
	var got []byte
	tb.Go("server", func(p *dcsctrl.Proc) {
		if _, err := tb.SendFileEncrypted(p, f, 0, len(content), conn, 7); err != nil {
			t.Error(err)
		}
	})
	tb.Go("client", func(p *dcsctrl.Proc) {
		got = tb.ClientRecv(p, conn, len(content))
	})
	tb.Run()
	if bytes.Equal(got, content) {
		t.Fatal("ciphertext equals plaintext")
	}
	if err := dcsctrl.NewTestbed(dcsctrl.SWOpt).ProvisionAESKey(1, [32]byte{}); err == nil {
		t.Fatal("key slot on SWOpt accepted")
	}
}
