package platform

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/dram"
	"zng/internal/gpu"
	"zng/internal/mmu"
	"zng/internal/sim"
)

// buildDRAM assembles a conventional GPU: SMs -> MMU -> L1 -> shared
// SRAM L2 -> multi-controller DRAM (GDDR5 reference or Optane DC PMM).
// Data is resident from the start; translation walks an in-memory page
// table.
func buildDRAM(eng *sim.Engine, cfg config.Config, dcfg config.DRAM) *system {
	u := mmu.New(eng, cfg.MMU, cfg.GPU.SMs, mmu.BaselineWalkLat(cfg.MMU))
	dev := dram.New(eng, dcfg)
	l2 := cache.New(eng, cfg.L2SRAM, dev, "L2")
	g := gpu.New(eng, cfg.GPU, cfg.L1, u, l2)
	return &system{
		eng: eng, cfg: cfg, mmu: u, l2: l2, gpu: g,
		collectExtra: func(r *Result) {
			r.Extra["dram_gbps"] = dev.DeliveredGBps(g.Cycles())
			r.Extra["dram_reads"] = float64(dev.Reads.Value())
			r.Extra["dram_writes"] = float64(dev.Writes.Value())
		},
	}
}
