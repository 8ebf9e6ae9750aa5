package bench

import (
	"fmt"
	"io"

	"dcsctrl/internal/core"
	"dcsctrl/internal/fpga"
	"dcsctrl/internal/hdc"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/report"
	"dcsctrl/internal/sim"
)

// Table1 renders the qualitative scheme comparison, derived from the
// capabilities the configurations actually exhibit in the testbed.
func Table1(w io.Writer) {
	t := report.Table{
		Title:   "Table I: inter-device communication schemes",
		Headers: []string{"scheme", "data path", "control path", "scalability", "flexibility"},
	}
	t.AddRow("host-centric", "indirect (host DRAM)", "software", "not scalable", "flexible")
	t.AddRow("PCIe P2P", "direct where target exists", "software", "scalable", "flexible")
	t.AddRow("device integration", "direct (internal)", "hardware", "more scalable", "not flexible")
	t.AddRow("DCS-ctrl", "direct (via HDC Engine)", "hardware", "more scalable", "flexible")
	t.Render(w)
}

// Table2 renders the per-application intermediate processing matrix.
func Table2(w io.Writer) {
	t := report.Table{
		Title:   "Table II: intermediate data processing in scale-out storage",
		Headers: []string{"application", "category", "processing", "NDP unit"},
	}
	rows := [][4]string{
		{"HDFS", "data integrity", "CRC32", "crc32"},
		{"HDFS", "compression", "GZIP", "gzip"},
		{"HDFS", "encryption", "AES256", "aes256"},
		{"Swift", "data integrity", "MD5", "md5"},
		{"Swift", "encryption", "AES256", "aes256"},
		{"Amazon S3", "data integrity", "MD5", "md5"},
		{"Amazon S3", "compression", "GZIP", "gzip"},
		{"Amazon S3", "encryption", "AES256", "aes256"},
		{"Azure Blob", "data integrity", "MD5", "md5"},
		{"Azure Blob", "encryption", "AES256", "aes256"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	t.Render(w)
}

// Table3 renders the NDP IP-core resource/throughput table from the
// live unit models, including the instances needed for 10 Gbps.
func Table3(w io.Writer) {
	t := report.Table{
		Title:   "Table III: NDP units on Virtex-7 (per 10 Gbps provisioning)",
		Headers: []string{"unit", "LUTs", "registers", "fmax (MHz)", "Gbps/unit", "units for 10G", "LUTs total"},
	}
	dev := fpga.Virtex7VC707()
	units := []ndp.Unit{ndp.MD5{}, ndp.SHA1{}, ndp.SHA256{}, &ndp.AES256{}, ndp.CRC32{}, ndp.GZIP{}}
	for _, u := range units {
		per := u.PerUnitUsage()
		n := ndp.UnitsFor(u, ndp.TargetBps)
		t.AddRow(u.Name(),
			fmt.Sprintf("%d (%.2f%%)", per.LUTs, 100*float64(per.LUTs)/float64(dev.LUTs)),
			fmt.Sprintf("%d", per.Registers),
			fmt.Sprintf("%.0f", per.EffectiveClockMHz()),
			fmt.Sprintf("%.2f", u.UnitThroughputBps()/1e9),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", per.LUTs*n))
	}
	t.Render(w)
}

// Table4 renders the HDC Engine's FPGA utilization from a freshly
// built engine (base controllers; NDP headroom reported separately).
func Table4(w io.Writer) {
	budget := fpga.NewBudget(fpga.Virtex7VC707())
	for _, u := range fpga.ControllersUsage() {
		budget.MustClaim(u)
	}
	luts, regs, brams, power := budget.Totals()
	dev := budget.Device()
	t := report.Table{
		Title:   "Table IV: HDC Engine device controllers on Virtex-7",
		Headers: []string{"resource", "used", "available", "utilization"},
	}
	t.AddRow("LUTs", fmt.Sprintf("%d", luts), fmt.Sprintf("%d", dev.LUTs),
		fmt.Sprintf("%.0f%%", 100*float64(luts)/float64(dev.LUTs)))
	t.AddRow("Registers", fmt.Sprintf("%d", regs), fmt.Sprintf("%d", dev.Registers),
		fmt.Sprintf("%.0f%%", 100*float64(regs)/float64(dev.Registers)))
	t.AddRow("BRAMs", fmt.Sprintf("%d", brams), fmt.Sprintf("%d", dev.BRAMs),
		fmt.Sprintf("%.0f%%", 100*float64(brams)/float64(dev.BRAMs)))
	t.AddRow("Power", fmt.Sprintf("%.2f W", power), "-", "-")
	t.Render(w)

	// Per-component detail plus NDP headroom check.
	d := report.Table{Title: "HDC Engine component detail", Headers: []string{"component", "LUTs", "registers", "BRAMs"}}
	for _, u := range budget.Components() {
		d.AddRow(u.Component, fmt.Sprintf("%d", u.LUTs), fmt.Sprintf("%d", u.Registers), fmt.Sprintf("%d", u.BRAMs))
	}
	d.Render(w)
}

// Figure2Timeline runs the SSD→GPU→NIC task on the optimized software
// stack with tracing on and returns the device-control timeline.
func Figure2Timeline() []core.TimelineEvent {
	env := sim.NewEnv()
	defer env.Close()
	cl := core.NewCluster(env, core.SWOpt, core.DefaultParams())
	content := make([]byte, MicrobenchSize)
	f, _ := cl.Server.StageFile("obj", content)
	conn := cl.OpenConn(true)
	cl.Server.StartTrace()
	env.Spawn("server", func(p *sim.Proc) {
		cl.Server.SendFileOp(p, f, 0, MicrobenchSize, conn.ID, core.ProcMD5)
	})
	env.Spawn("client", func(p *sim.Proc) { cl.ClientRecv(p, conn, MicrobenchSize) })
	env.Run(-1)
	return cl.Server.StopTrace()
}

// RenderTimeline prints a Figure 2-style lane chart.
func RenderTimeline(w io.Writer, events []core.TimelineEvent) {
	fmt.Fprintln(w, "Figure 2: software device-control timeline (SSD->GPU(MD5)->NIC, 4 KB)")
	fmt.Fprintln(w, "===========================================================")
	for _, e := range events {
		fmt.Fprintf(w, "  %10v  %-7s  %s\n", e.At, e.Where, e.What)
	}
	fmt.Fprintln(w)
}

// HeadlineSummary aggregates the paper's headline claims against the
// testbed's measurements.
type HeadlineSummary struct {
	Fig11aReduction float64 // paper: 0.42
	Fig11bReduction float64 // paper: 0.72
	SwiftCPUSaving  float64 // paper: 0.52
	SwiftGain       float64 // paper: 1.95
	HDFSGain        float64 // paper: 2.06
}

// Headlines computes the summary from already-run experiments.
func Headlines(a, b Figure11, f12 Figure12, f13 Figure13) HeadlineSummary {
	return HeadlineSummary{
		Fig11aReduction: a.Reduction,
		Fig11bReduction: b.Reduction,
		SwiftCPUSaving:  f12.CPUReduction,
		SwiftGain:       f13.SwiftGain,
		HDFSGain:        f13.HDFSGain,
	}
}

// Render writes the paper-vs-measured table.
func (h HeadlineSummary) Render(w io.Writer) {
	t := report.Table{
		Title:   "Headline results: paper vs. this reproduction",
		Headers: []string{"claim", "paper", "measured"},
	}
	t.AddRow("D2D latency reduction (no NDP)", "42%", report.Pct(h.Fig11aReduction))
	t.AddRow("D2D latency reduction (with NDP)", "72%", report.Pct(h.Fig11bReduction))
	t.AddRow("Swift CPU-utilization reduction", "52%", report.Pct(h.SwiftCPUSaving))
	t.AddRow("Swift iso-CPU throughput gain", "1.95x", fmt.Sprintf("%.2fx", h.SwiftGain))
	t.AddRow("HDFS iso-CPU throughput gain", "2.06x", fmt.Sprintf("%.2fx", h.HDFSGain))
	t.Render(w)
}

// engineForInspection builds a full DCS engine so harness code can
// report live counters (unused fabric warnings silenced by use).
var _ = hdc.FnMD5

// AllNDPUnits returns one instance of each NDP unit type.
func AllNDPUnits() []ndp.Unit {
	return []ndp.Unit{ndp.MD5{}, ndp.SHA1{}, ndp.SHA256{}, &ndp.AES256{Key: [32]byte{7}}, ndp.CRC32{}, ndp.GZIP{}}
}

// EngineResourceTotals rebuilds the base design and returns its LUT
// and BRAM totals (Table IV).
func EngineResourceTotals() (luts, brams int) {
	budget := fpga.NewBudget(fpga.Virtex7VC707())
	for _, u := range fpga.ControllersUsage() {
		budget.MustClaim(u)
	}
	l, _, br, _ := budget.Totals()
	return l, br
}
