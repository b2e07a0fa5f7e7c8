package platform

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/gpu"
	"zng/internal/mmu"
	"zng/internal/sim"
	"zng/internal/ssd"
)

// buildHybrid assembles HybridGPU [11] (Fig. 1a): the GPU's on-board
// DRAM is replaced by an embedded SSD module — request dispatcher, SSD
// engine running the page-mapped FTL firmware, a single-package DRAM
// read/write buffer, and legacy shared-bus flash channels to the
// Z-NAND backbone.
func buildHybrid(eng *sim.Engine, cfg config.Config) *system {
	u := mmu.New(eng, cfg.MMU, cfg.GPU.SMs, mmu.BaselineWalkLat(cfg.MMU))
	mod := ssd.New(eng, cfg.Engine, cfg.Flash, cfg.FTL)
	l2 := cache.New(eng, cfg.L2SRAM, mod, "L2")
	g := gpu.New(eng, cfg.GPU, cfg.L1, u, l2)
	return &system{
		eng: eng, cfg: cfg, mmu: u, l2: l2, gpu: g,
		collectExtra: func(r *Result) {
			cyc := g.Cycles()
			r.FlashReadGBps = gbps(mod.BB.TotalBytesRead(), cyc)
			r.FlashWriteGBps = gbps(mod.BB.TotalBytesProgrammed(), cyc)
			r.PlaneWrites = planeWrites(mod.BB)
			r.Extra["buf_hits"] = float64(mod.BufHits.Value())
			r.Extra["buf_misses"] = float64(mod.BufMisses.Value())
			r.Extra["engine_busy"] = float64(mod.EngineBusyTicks())
			r.Extra["channel_bytes"] = float64(mod.ChannelBytes())
			r.Extra["gc_runs"] = float64(mod.FTL.GCRuns.Value())
			r.Extra["translation_state_bytes"] = float64(mod.FTL.StateBytes() + u.StateBytes())
			r.Extra["mapped_pages"] = float64(mod.FTL.MappedPages())
		},
	}
}
