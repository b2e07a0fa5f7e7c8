package platform

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/dram"
	"zng/internal/gpu"
	"zng/internal/mem"
	"zng/internal/mmu"
	"zng/internal/sim"
	"zng/internal/stats"
)

// buildHetero assembles the discrete GPU-SSD system of Section II-C:
// GPU with GDDR5, data initially on an external NVMe SSD. A non-
// resident page triggers a fault: interrupt to the CPU, SSD read,
// redundant staging copy in host DRAM (the user/privilege-mode switch
// cost), then a PCIe DMA into GPU memory.
func buildHetero(eng *sim.Engine, cfg config.Config) *system {
	u := mmu.New(eng, cfg.MMU, cfg.GPU.SMs, mmu.BaselineWalkLat(cfg.MMU))
	dev := dram.New(eng, cfg.GDDR5)
	l2 := cache.New(eng, cfg.L2SRAM, dev, "L2")
	g := gpu.New(eng, cfg.GPU, cfg.L1, u, l2)

	h := &hostPath{
		eng:      eng,
		cfg:      cfg.Host,
		mmu:      u,
		handlers: sim.NewPool(eng, 8),
		ssd:      sim.NewPort(eng, config.GBpsToBytesPerTick(cfg.Host.SSDGBps), 0),
		staging:  sim.NewPort(eng, config.GBpsToBytesPerTick(cfg.Host.StagingCopyBW), 0),
		pcie:     sim.NewPort(eng, config.GBpsToBytesPerTick(cfg.Host.PCIeGBps), 0),
		resident: make(map[uint64]uint64),
		pending:  make(map[uint64]*pageFault),
	}
	u.Fault = h.fault

	return &system{
		eng: eng, cfg: cfg, mmu: u, l2: l2, gpu: g,
		collectExtra: func(r *Result) {
			r.Extra["faults"] = float64(h.Faults.Value())
			r.Extra["fault_evictions"] = float64(h.Evictions.Value())
			r.Extra["dram_gbps"] = dev.DeliveredGBps(g.Cycles())
			r.Extra["pcie_bytes"] = float64(h.pcie.Bytes())
		},
	}
}

// hostPath services GPU page faults through the host.
type hostPath struct {
	eng *sim.Engine
	cfg config.Host
	mmu *mmu.Unit

	handlers *sim.Pool
	ssd      *sim.Port
	staging  *sim.Port
	pcie     *sim.Port

	clock    uint64
	resident map[uint64]uint64 // page -> LRU stamp
	pending  map[uint64]*pageFault
	spare    []*pageFault // recycled, waiter lists kept

	Faults    stats.Counter
	Evictions stats.Counter
}

// fault implements the mmu.Unit fault hook.
func (h *hostPath) fault(va uint64, resume sim.Handler) bool {
	page := va / mem.PageBytes4K
	if _, ok := h.resident[page]; ok {
		h.clock++
		h.resident[page] = h.clock
		return false
	}
	h.Faults.Inc()
	if f, inFlight := h.pending[page]; inFlight {
		f.waiters = append(f.waiters, resume)
		return true
	}
	var f *pageFault
	if n := len(h.spare); n > 0 {
		f = h.spare[n-1]
		h.spare = h.spare[:n-1]
	} else {
		f = &pageFault{h: h}
	}
	f.page, f.stage, f.waiters = page, 0, append(f.waiters, resume)
	h.pending[page] = f

	// Interrupt + driver + user/kernel switches on a host handler, then
	// three data movements: SSD -> host DRAM, the redundant staging
	// copy, and PCIe DMA to the GPU (Section II-C).
	h.handlers.Acquire(h.cfg.FaultFixedLat, f, nil)
	return true
}

// pageFault is one page fault in service and the translations waiting
// on it. It is its own event handler; stage counts the steps done.
type pageFault struct {
	h       *hostPath
	page    uint64
	stage   int
	waiters []sim.Handler
}

// Handle implements sim.Handler: the next step of the fault service
// completed.
func (f *pageFault) Handle(any) {
	h := f.h
	f.stage++
	switch f.stage {
	case 1:
		h.ssd.Send(mem.PageBytes4K, f, nil)
	case 2:
		h.staging.Send(mem.PageBytes4K, f, nil)
	case 3:
		h.pcie.Send(mem.PageBytes4K, f, nil)
	default:
		h.arrive(f)
	}
}

func (h *hostPath) arrive(f *pageFault) {
	h.clock++
	h.resident[f.page] = h.clock
	if len(h.resident) > h.cfg.GPUMemPages {
		h.evictLRU()
	}
	delete(h.pending, f.page)
	for _, w := range f.waiters {
		w.Handle(nil)
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
	h.spare = append(h.spare, f)
}

func (h *hostPath) evictLRU() {
	var victim uint64
	oldest := ^uint64(0)
	for p, s := range h.resident {
		if s < oldest {
			oldest = s
			victim = p
		}
	}
	delete(h.resident, victim)
	h.mmu.InvalidatePage(victim)
	h.Evictions.Inc()
}
