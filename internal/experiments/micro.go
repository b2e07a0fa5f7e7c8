package experiments

import (
	"zng/internal/config"
	"zng/internal/dram"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/mem"
	"zng/internal/mmu"
	"zng/internal/sim"
	"zng/internal/ssd"
	"zng/internal/stats"
)

// nop completes the micro-drivers' requests and flash operations that
// only have to finish: it still fires at the completion tick, so a
// saturation run ends when its last request completes.
var nop = sim.Func(func() {})

// Fig1b measures the accumulated bandwidth of each HybridGPU component
// in isolation (Fig. 1b): the single-package DRAM buffer, the legacy
// flash channels, the flash arrays (read and write), and the SSD
// engine — each saturated by a dedicated micro-driver. The GDDR5
// aggregate is the "performance gap" line at the top of the figure.
func Fig1b(o Options) (*stats.Table, error) {
	cfg := o.Cfg
	t := stats.NewTable("Fig. 1b: HybridGPU component bandwidths (GB/s)",
		"component", "GB/s")

	t.AddRow("GDDR5 (gap line)", saturateDRAM(cfg.GDDR5))

	// DRAM buffer: pure port bandwidth (single 32-bit package).
	t.AddRow("DRAM buffer", cfg.Engine.DRAMBufGBps)

	// Flash channels: 16 legacy buses moving whole pages.
	t.AddRow("flash channel", float64(cfg.Flash.Channels)*cfg.Flash.ChannelGBps)

	// Flash array read/write: every plane streaming pages.
	rd, wr := saturateArrays(cfg.Flash)
	t.AddRow("flash read", rd)
	t.AddRow("flash write", wr)

	// SSD engine: firmware-processing throughput on 128 B requests.
	t.AddRow("SSD engine", saturateEngine(cfg))
	return t, nil
}

// Fig. 4c's desktop DDR4 and mobile LPDDR4. No platform simulates
// them, so they are this figure's presets, not config.Config fields.
var (
	ddr4   = config.DRAM{Controllers: 6, TotalGBps: 256, ReadLat: config.NsToTicks(170), WriteLat: config.NsToTicks(170), AccessGran: 128}
	lpddr4 = config.DRAM{Controllers: 4, TotalGBps: 44.8, ReadLat: config.NsToTicks(220), WriteLat: config.NsToTicks(220), AccessGran: 128}
)

// Fig4c measures the maximum 128 B-request throughput of each memory
// medium / system path (Fig. 4c).
func Fig4c(o Options) (*stats.Table, error) {
	cfg := o.Cfg
	t := stats.NewTable("Fig. 4c: max data access throughput (GB/s)", "medium", "GB/s")
	t.AddRow("GDDR5", saturateDRAM(cfg.GDDR5))
	t.AddRow("DDR4", saturateDRAM(ddr4))
	t.AddRow("LPDDR4", saturateDRAM(lpddr4))
	t.AddRow("ZSSD", float64(cfg.Flash.Channels)*cfg.Flash.ChannelGBps) // interface-bound raw drive
	t.AddRow("GPU-SSD", cfg.Host.PCIeGBps)                              // host-mediated path
	t.AddRow("HybridGPU", saturateEngine(cfg))
	return t, nil
}

// Fig4d reproduces the memory-access latency breakdown (Fig. 4d):
// per-component time of a loaded read on the conventional GPU memory
// subsystem versus HybridGPU. The paper's headline: the SSD engine
// alone accounts for ~67% of HybridGPU's total.
func Fig4d(o Options) (*stats.Table, error) {
	gpu := fig4dGPU(o.Cfg)
	hyb := fig4dHybrid(o.Cfg)

	t := stats.NewTable("Fig. 4d: latency breakdown (ns per request under load)",
		"component", "GPU(DRAM)", "HybridGPU")
	comps := append(gpu.Components(), hyb.Components()...)
	seen := map[string]bool{}
	for _, c := range comps {
		if seen[c] {
			continue
		}
		seen[c] = true
		t.AddRow(c, gpu.Get(c), hyb.Get(c))
	}
	t.AddRow("TOTAL", gpu.Total(), hyb.Total())
	return t, nil
}

// fig4dGPU charges the conventional path: TLB walk share, L1, L2,
// interconnects, DRAM under a mild load.
func fig4dGPU(cfg config.Config) *stats.Breakdown {
	b := stats.NewBreakdown()
	// TLB: walks amortized over a typical hit rate.
	walk := config.TicksToNs(mmu.BaselineWalkLat(cfg.MMU))
	b.Add("TLB", 1+0.05*walk)
	b.Add("L1 cache", config.TicksToNs(cfg.L1.ReadLat))
	b.Add("L1-L2 net", config.TicksToNs(10))
	b.Add("L2 cache", config.TicksToNs(cfg.L2SRAM.ReadLat))
	b.Add("L2-MC net", config.TicksToNs(12))
	b.Add("DRAM", config.TicksToNs(cfg.GDDR5.ReadLat)+measuredQueue(cfg.GDDR5))
	return b
}

// fig4dHybrid drives the instrumented HybridGPU read path under load
// and attributes waiting time per stage.
func fig4dHybrid(cfg config.Config) *stats.Breakdown {
	eng := sim.NewEngine()
	fcfg := cfg.Flash
	bb := flash.New(eng, fcfg)
	pm := ftl.NewPageMapped(eng, bb, cfg.FTL)
	dispatch := sim.NewResource(eng)
	firmware := sim.NewPool(eng, cfg.Engine.Cores)
	bufPort := sim.NewPort(eng, config.GBpsToBytesPerTick(cfg.Engine.DRAMBufGBps), cfg.Engine.DRAMBufLat)

	b := stats.NewBreakdown()
	b.Add("TLB", 1+0.05*config.TicksToNs(mmu.BaselineWalkLat(cfg.MMU)))
	b.Add("L1 cache", config.TicksToNs(cfg.L1.ReadLat))
	b.Add("L1-L2 net", config.TicksToNs(10))
	b.Add("L2 cache", config.TicksToNs(cfg.L2SRAM.ReadLat))

	// Under GPU load, many L2 banks push requests concurrently: the
	// dispatcher is wide, so the backlog piles up at the engine cores —
	// the effect behind the paper's 67% engine share. Reads re-access
	// pages ~42x, so ~90% hit the DRAM buffer; the cold tail walks the
	// flash path.
	const n = 512
	dispatchLat := config.NsToTicks(10)
	channels := make([]*sim.Port, fcfg.Channels)
	for i := range channels {
		channels[i] = sim.NewPort(eng, config.GBpsToBytesPerTick(fcfg.ChannelGBps), 2)
	}

	done := 0
	for i := 0; i < n; i++ {
		i := i
		addr := uint64(i) * 4096
		t0 := eng.Now()
		dispatch.Acquire(dispatchLat, sim.Func(func() {
			t1 := eng.Now()
			b.Add("L2-engine net", config.TicksToNs(t1-t0))
			firmware.Acquire(cfg.Engine.FTLLatPerReq, sim.Func(func() {
				t2 := eng.Now()
				b.Add("SSD engine", config.TicksToNs(t2-t1))
				finish := func(t3 sim.Tick) {
					bufPort.Send(128, sim.Func(func() {
						b.Add("DRAM buffer", config.TicksToNs(eng.Now()-t3))
						done++
					}), nil)
				}
				if i%10 != 0 {
					// Buffer hit.
					finish(t2)
					return
				}
				loc := pm.Lookup(addr)
				bb.Plane(loc.Plane).Read(loc.Block, loc.Page, sim.Func(func() {
					t3 := eng.Now()
					b.Add("flash array", config.TicksToNs(t3-t2))
					channels[loc.Plane%len(channels)].Send(fcfg.PageBytes, sim.Func(func() {
						t4 := eng.Now()
						b.Add("engine-flash net", config.TicksToNs(t4-t3))
						finish(t4)
					}), nil)
				}), nil)
			}), nil)
		}), nil)
	}
	eng.Run()
	// Normalize the accumulated sums to per-request values.
	out := stats.NewBreakdown()
	for _, c := range b.Components() {
		switch c {
		case "TLB", "L1 cache", "L1-L2 net", "L2 cache":
			out.Add(c, b.Get(c))
		default:
			out.Add(c, b.Get(c)/float64(n))
		}
	}
	return out
}

// measuredQueue estimates steady-state queueing at a DRAM device at
// ~70% load using the port model.
func measuredQueue(dcfg config.DRAM) float64 {
	eng := sim.NewEngine()
	dev := dram.New(eng, dcfg)
	const n = 2048
	var total sim.Tick
	issued := 0
	var issue func()
	gap := sim.Tick(float64(n*dcfg.AccessGran) / (0.7 * config.GBpsToBytesPerTick(dcfg.TotalGBps)) / n)
	issue = func() {
		if issued >= n {
			return
		}
		issued++
		start := eng.Now()
		dev.Access(&mem.Request{Addr: uint64(issued) * uint64(dcfg.AccessGran), Size: dcfg.AccessGran,
			Done: sim.Func(func() { total += eng.Now() - start - dcfg.ReadLat })})
		eng.Schedule(gap, sim.Func(issue), nil)
	}
	issue()
	eng.Run()
	q := config.TicksToNs(total) / float64(n)
	if q < 0 {
		q = 0
	}
	return q
}

// saturateDRAM floods a DRAM backend and reports delivered GB/s.
func saturateDRAM(dcfg config.DRAM) float64 {
	eng := sim.NewEngine()
	dev := dram.New(eng, dcfg)
	const n = 16000
	for i := 0; i < n; i++ {
		dev.Access(&mem.Request{Addr: uint64(i) * uint64(dcfg.AccessGran), Size: dcfg.AccessGran, Done: nop})
	}
	eng.Run()
	return dev.DeliveredGBps(eng.Now())
}

// saturateArrays floods every plane with page reads, then programs,
// and reports accumulated array bandwidth.
func saturateArrays(fcfg config.Flash) (readGBps, writeGBps float64) {
	eng := sim.NewEngine()
	bb := flash.New(eng, fcfg)
	const per = 8
	for p := 0; p < bb.Planes(); p++ {
		for i := 0; i < per; i++ {
			bb.Plane(p).Read(0, i, nop, nil)
		}
	}
	eng.Run()
	readGBps = config.BytesPerTickToGBps(float64(bb.TotalBytesRead()) / float64(eng.Now()))

	eng2 := sim.NewEngine()
	bb2 := flash.New(eng2, fcfg)
	for p := 0; p < bb2.Planes(); p++ {
		for i := 0; i < per; i++ {
			if err := bb2.Plane(p).Program(0, i, nop, nil); err != nil {
				panic(err)
			}
		}
	}
	eng2.Run()
	writeGBps = config.BytesPerTickToGBps(float64(bb2.TotalBytesProgrammed()) / float64(eng2.Now()))
	return readGBps, writeGBps
}

// saturateEngine floods the SSD module with buffer-hitting requests so
// only dispatch+firmware throughput limits it: the engine and the
// buffer bus jointly bound the whole module, the engine dominating.
func saturateEngine(cfg config.Config) float64 {
	eng := sim.NewEngine()
	fcfg := cfg.Flash
	mod := ssd.New(eng, cfg.Engine, fcfg, cfg.FTL)
	// Warm one page.
	mod.Access(&mem.Request{Addr: 0, Size: 128, Done: nop})
	eng.Run()
	start := eng.Now()
	const n = 8000
	var bytes uint64
	for i := 0; i < n; i++ {
		mod.Access(&mem.Request{Addr: uint64(i%32) * 128, Size: 128,
			Done: sim.Func(func() { bytes += 128 })})
	}
	eng.Run()
	return config.BytesPerTickToGBps(float64(bytes) / float64(eng.Now()-start))
}
