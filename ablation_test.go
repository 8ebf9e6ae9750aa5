// Ablation benchmarks for the design choices DESIGN.md calls out:
// the per-command chunk window, the scoreboard capacity, the engine's
// NIC queue-pair provisioning, and the NDP bank sizing. Each reports
// the metric the choice trades off.
package dcsctrl_test

import (
	"fmt"
	"testing"

	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
)

// ablationStream measures aggregate engine throughput for k concurrent
// 256 KB GET streams under the given parameters.
func ablationStream(b *testing.B, params core.Params, k int, proc core.Processing) float64 {
	b.Helper()
	env := sim.NewEnv()
	defer env.Close()
	cl := core.NewCluster(env, core.DCSCtrl, params)
	const size = 256 << 10
	const rounds = 4
	done := 0
	for i := 0; i < k; i++ {
		conn := cl.OpenConn(true)
		f, err := cl.Server.StageFile(fmt.Sprintf("f%d", i), make([]byte, size))
		if err != nil {
			b.Fatal(err)
		}
		ff, cn := f, conn
		env.Spawn("stream", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				if _, err := cl.Server.SendFileOp(p, ff, 0, size, cn.ID, proc); err != nil {
					b.Error(err)
					return
				}
				done++
			}
		})
		env.Spawn("sink", func(p *sim.Proc) { cl.ClientRecv(p, cn, rounds*size) })
	}
	end := env.Run(-1)
	return float64(done*size) * 8 / end.Seconds() / 1e9
}

// ablationLatency measures one warm 256 KB op's latency.
func ablationLatency(b *testing.B, params core.Params, proc core.Processing) sim.Time {
	b.Helper()
	env := sim.NewEnv()
	defer env.Close()
	cl := core.NewCluster(env, core.DCSCtrl, params)
	const size = 256 << 10
	f, err := cl.Server.StageFile("obj", make([]byte, size))
	if err != nil {
		b.Fatal(err)
	}
	conn := cl.OpenConn(true)
	var lat sim.Time
	env.Spawn("srv", func(p *sim.Proc) {
		cl.Server.SendFileOp(p, f, 0, size, conn.ID, proc)
		res, err := cl.Server.SendFileOp(p, f, 0, size, conn.ID, proc)
		if err != nil {
			b.Error(err)
			return
		}
		lat = res.Latency
	})
	env.Spawn("cli", func(p *sim.Proc) { cl.ClientRecv(p, conn, 2*size) })
	env.Run(-1)
	return lat
}

// BenchmarkAblationWindow sweeps the per-command in-flight chunk
// window: window 1 serializes read/process/send per chunk; larger
// windows pipeline them (the paper's scoreboard exists to allow this).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("window-%d", w), func(b *testing.B) {
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				params := core.DefaultParams()
				params.HDC.Window = w
				lat = ablationLatency(b, params, core.ProcMD5)
			}
			b.ReportMetric(lat.Microseconds(), "op-µs")
		})
	}
}

// BenchmarkAblationScoreboard sweeps the scoreboard capacity under 16
// concurrent commands: too few entries throttle concurrency.
func BenchmarkAblationScoreboard(b *testing.B) {
	for _, entries := range []int{4, 16, 128} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				params := core.DefaultParams()
				params.HDC.ScoreboardEntries = entries
				gbps = ablationStream(b, params, 16, core.ProcNone)
			}
			b.ReportMetric(gbps, "gbps")
		})
	}
}

// BenchmarkAblationEngineNICQueues sweeps the engine's NIC queue-pair
// count at 40 GbE — the provisioning knob that lets the engine scale
// past a single ~12 Gbps transmit pipeline.
func BenchmarkAblationEngineNICQueues(b *testing.B) {
	for _, q := range []int{1, 4} {
		b.Run(fmt.Sprintf("queues-%d", q), func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				params := core.DefaultParams()
				params.NumSSDs = 6
				params.NIC.WireBps = 40e9
				params.HostNICQueues = 4
				params.EngineNICQueues = q
				params.PCIe.LinkBps = 126e9 // Gen3, so the fabric isn't the cap
				params.PCIe.CoreBps = 512e9
				params.HDC.ScoreboardEntries = 256
				params.HDC.ChunkCount = 1024
				params.HDC.DDR3Bytes = 192 << 20
				gbps = ablationStream(b, params, 24, core.ProcNone)
			}
			b.ReportMetric(gbps, "gbps")
		})
	}
}

// BenchmarkAblationNDPProvisioning compares a 10-Gbps MD5 bank (the
// paper's provisioning) against an over- and under-provisioned one on
// a line-rate stream: the bank becomes the pipeline bottleneck exactly
// when its aggregate rate falls below the wire.
func BenchmarkAblationNDPProvisioning(b *testing.B) {
	for _, target := range []float64{2e9, 10e9, 40e9} {
		b.Run(fmt.Sprintf("bank-%.0fG", target/1e9), func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				params := core.DefaultParams()
				params.HDC.NDPTargetBps = target
				gbps = ablationStream(b, params, 8, core.ProcMD5)
			}
			b.ReportMetric(gbps, "gbps")
		})
	}
}
