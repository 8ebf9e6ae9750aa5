package bench

import (
	"fmt"
	"io"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/core"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/report"
	"dcsctrl/internal/sim"
)

// FaultCell is one trial of the fault-recovery matrix: a server design
// under a named fault profile, driven by a short Swift workload, with
// the recovery machinery's counters captured afterwards.
type FaultCell struct {
	Config  core.Config
	Profile string

	Requests int64
	Errors   int64
	Gbps     float64

	Injected       int64 // faults fired across both nodes
	DriverRetries  int64 // D2D commands re-issued (DCS-ctrl only)
	DriverTimeouts int64 // commands abandoned by the watchdog
	EngineFailed   bool  // engine declared dead, host adopted conns
	Fallbacks      int64 // ops completed on the host-mediated path
	NICTxReplays   int64 // corrupt frames re-transmitted
}

// FaultMatrix is the full profiles×configs recovery sweep — the
// evaluation-harness view of the PR-1 recovery machinery: every design
// must absorb every profile with zero application-visible errors.
type FaultMatrix struct {
	Profiles []string
	Configs  []core.Config
	Cells    []FaultCell // row-major: profile-major, config-minor
}

// FaultMatrixProfiles are the swept profiles. engine-fail is included:
// on DCS-ctrl it exercises watchdog + host fallback, on the software
// designs it is a no-op control row.
var FaultMatrixProfiles = []string{"light", "heavy", "engine-fail"}

// faultMatrixSeed keeps the matrix deterministic run to run.
const faultMatrixSeed = 42

// RunFaultMatrix executes the matrix serially.
func RunFaultMatrix() FaultMatrix {
	return RunFaultMatrixParallel(1)
}

// RunFaultMatrixParallel fans the matrix's independent cells across up
// to workers goroutines, one cluster and one injector per cell.
func RunFaultMatrixParallel(workers int) FaultMatrix {
	m := FaultMatrix{
		Profiles: FaultMatrixProfiles,
		Configs:  []core.Config{core.Vanilla, core.SWOpt, core.SWP2P, core.DCSCtrl},
	}
	m.Cells = make([]FaultCell, len(m.Profiles)*len(m.Configs))
	ParallelFor(len(m.Cells), workers, func(i int) {
		profile := m.Profiles[i/len(m.Configs)]
		kind := m.Configs[i%len(m.Configs)]
		m.Cells[i] = runFaultCell(kind, profile)
	})
	return m
}

func runFaultCell(kind core.Config, profileName string) FaultCell {
	profile, ok := fault.ProfileByName(profileName)
	if !ok {
		panic("bench: unknown fault profile " + profileName)
	}
	params := core.DefaultParams()
	inj := fault.NewInjector(faultMatrixSeed, profile)
	params.Faults = inj
	env := sim.NewEnv()
	defer env.Close()
	cl := core.NewCluster(env, kind, params)
	cfg := apps.DefaultSwiftConfig()
	cfg.Conns = 4
	cfg.Warmup = 1 * sim.Millisecond
	cfg.Duration = 8 * sim.Millisecond
	if profileName == "engine-fail" {
		// The driver watchdog declares the engine dead after 20 ms
		// (core.NewNode default); the measured window must outlast it
		// for the host-fallback path to complete any requests.
		cfg.Duration = 30 * sim.Millisecond
	}
	res, err := apps.RunSwift(env, cl, cfg)
	if err != nil {
		panic(err)
	}
	cell := FaultCell{
		Config:    kind,
		Profile:   profileName,
		Requests:  int64(res.Requests),
		Errors:    int64(res.Errors),
		Gbps:      res.Gbps,
		Injected:  inj.TotalInjected(),
		Fallbacks: cl.Server.Fallbacks(),
	}
	cell.NICTxReplays, _ = cl.Server.NIC.RecoveryStats()
	if cl.Server.Driver != nil {
		cell.DriverRetries = cl.Server.Driver.Retries()
		cell.DriverTimeouts = cl.Server.Driver.Timeouts()
		cell.EngineFailed = cl.Server.Driver.Failed()
	}
	return cell
}

// Render writes the matrix as a table.
func (m FaultMatrix) Render(w io.Writer) {
	t := report.Table{
		Title:   "Fault-recovery matrix: short Swift run per design x profile",
		Headers: []string{"profile", "design", "reqs", "errs", "Gbps", "injected", "retries", "fallbacks", "engine"},
	}
	for _, c := range m.Cells {
		engine := "ok"
		if c.EngineFailed {
			engine = "FAILED->host"
		}
		t.AddRow(c.Profile, c.Config.String(),
			fmt.Sprintf("%d", c.Requests),
			fmt.Sprintf("%d", c.Errors),
			fmt.Sprintf("%.2f", c.Gbps),
			fmt.Sprintf("%d", c.Injected),
			fmt.Sprintf("%d", c.DriverRetries),
			fmt.Sprintf("%d", c.Fallbacks),
			engine)
	}
	t.Render(w)
	fmt.Fprintln(w, "  Every row must show zero errors: the recovery machinery absorbs")
	fmt.Fprintln(w, "  injected faults without surfacing them to the application.")
	fmt.Fprintln(w)
}
