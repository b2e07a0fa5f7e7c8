package experiments

import (
	"fmt"

	"zng/internal/config"
	"zng/internal/stats"
	"zng/internal/workload"
)

// TableI renders the system configuration (Table I).
func TableI(o Options) (*stats.Table, error) {
	cfg := o.Cfg
	t := stats.NewTable("Table I: system configuration", "component", "parameter", "value")
	t.AddRow("GPU", "SM / freq", fmt.Sprintf("%d / %g GHz", cfg.GPU.SMs, config.GPUClockGHz))
	t.AddRow("L1 cache", "size", cfg.L1.SizeBytes())
	t.AddRow("L1 cache", "sets/ways/line", tripleInts(cfg.L1.Sets, cfg.L1.Ways, cfg.L1.LineBytes))
	t.AddRow("L2 (SRAM)", "size", cfg.L2SRAM.SizeBytes())
	t.AddRow("L2 (STT-MRAM)", "size", cfg.L2STT.SizeBytes())
	t.AddRow("L2 (STT-MRAM)", "read/write latency (cyc)", tripleInts(int(cfg.L2STT.ReadLat), int(cfg.L2STT.WriteLat), 0))
	t.AddRow("Z-NAND", "channel/package", tripleInts(cfg.Flash.Channels, cfg.Flash.PackagesPerCh, 0))
	t.AddRow("Z-NAND", "die/plane", tripleInts(cfg.Flash.DiesPerPkg, cfg.Flash.PlanesPerDie, 0))
	t.AddRow("Z-NAND", "block/page", tripleInts(cfg.Flash.BlocksPerPl, cfg.Flash.PagesPerBlock, 0))
	t.AddRow("Z-NAND", "tR (us)", config.TicksToNs(cfg.Flash.ReadLat)/1000)
	t.AddRow("Z-NAND", "tPROG (us)", config.TicksToNs(cfg.Flash.ProgramLat)/1000)
	t.AddRow("Z-NAND", "P/E cycles", cfg.Flash.PECycles)
	t.AddRow("Z-NAND", "registers per plane", cfg.Flash.RegsPerPlane)
	t.AddRow("Flash network", "type", "mesh")
	t.AddRow("Flash network", "link width (B)", 8)
	t.AddRow("Optane DC PMM", "tRCD/tCL (ns)", "190 / 8.9")
	t.AddRow("Optane DC PMM", "tRP (ns)", 763)
	return t, nil
}

func tripleInts(a, b, c int) string {
	if c == 0 {
		return fmt.Sprintf("%d / %d", a, b)
	}
	return fmt.Sprintf("%d / %d / %d", a, b, c)
}

// TableII renders the benchmark suite (Table II) together with the
// read ratio measured from the generated traces — the transcription
// and the calibration side by side. Read ratios converge well below
// full scale, so the traces are characterized at o.Scale capped at 1.0
// and figure-quality runs need not pay for oversized traces.
func TableII(o Options) (*stats.Table, error) {
	scale := min(o.Scale, 1)
	t := stats.NewTable("Table II: GPU benchmarks",
		"workload", "suite", "read ratio (paper)", "read ratio (measured)", "kernels")
	for _, spec := range workload.Specs() {
		app := workload.NewApp(spec, scale, 0)
		st := workload.Characterize(app)
		t.AddRow(spec.Name, spec.Suite, spec.ReadRatio, st.ReadRatio(), spec.Kernels)
	}
	return t, nil
}

// fig3Media is Fig. 3's density per package and power per GB of each
// medium. No model reads them, so they are not config.Config fields.
var fig3Media = []struct {
	name              string
	densityGB, wPerGB float64
}{
	{"GDDR5", 1, 1.88},
	{"DDR4", 2, 0.38},
	{"LPDDR4", 4, 0.20},
	{"Z-NAND", 64, 0.02}, // 64x a GDDR5 package (Fig. 3a)
}

// Fig3 renders the memory density and power comparison (Fig. 3a/3b).
// Its values are fixed, so it reads nothing from the options.
func Fig3(Options) (*stats.Table, error) {
	t := stats.NewTable("Fig. 3: density and power per package",
		"medium", "density (GB)", "power (W/GB)")
	for _, m := range fig3Media {
		t.AddRow(m.name, m.densityGB, m.wPerGB)
	}
	return t, nil
}
