// Package platform assembles the seven GPU-SSD systems the ZnG paper
// evaluates (Section V-A), plus the pure-GDDR5 reference used by
// Figures 4 and 5a:
//
//	GDDR5     – GPU with conventional GDDR5 memory, data resident.
//	Hetero    – discrete GPU + NVMe SSD behind the host (page faults
//	            cross PCIe with redundant host copies, Section II-C).
//	HybridGPU – SSD module embedded behind the GPU L2 [11].
//	Optane    – GPU DRAM replaced by six Optane DC PMM channels.
//	ZnG-base  – Section III-B architecture, no read/write optimization.
//	ZnG-rdopt – + STT-MRAM 24 MB read-only L2 with dynamic prefetch.
//	ZnG-wropt – + grouped flash-register write cache over NiF.
//	ZnG       – both optimizations (the full proposal).
//
// Every platform shares the same GPU core model, workload traces, MMU
// and L1; they differ only in translation regime, L2 configuration and
// the memory backend — exactly the axes the paper varies.
package platform

import (
	"fmt"
	"strings"

	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/gpu"
	"zng/internal/mmu"
	"zng/internal/sim"
	"zng/internal/workload"
)

// Kind identifies a platform.
type Kind int

const (
	GDDR5 Kind = iota
	Hetero
	HybridGPU
	Optane
	ZnGBase
	ZnGRdopt
	ZnGWropt
	ZnG
)

// Kinds lists the seven platforms of Fig. 10 in the paper's legend
// order.
func Kinds() []Kind {
	return []Kind{Hetero, HybridGPU, Optane, ZnGBase, ZnGRdopt, ZnGWropt, ZnG}
}

// AllKinds lists every buildable platform: the GDDR5 reference first,
// then the seven evaluated platforms in legend order. The CLIs and
// the zngd API derive their -platform vocabularies from this, so a
// new platform shows up everywhere without touching those layers.
func AllKinds() []Kind {
	return append([]Kind{GDDR5}, Kinds()...)
}

// KindNames lists the AllKinds vocabulary as strings.
func KindNames() []string {
	kinds := AllKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

// KindByName resolves a platform by its String form, failing fast
// with the full vocabulary on an unknown name.
func KindByName(name string) (Kind, error) {
	for _, k := range AllKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("platform: unknown platform %q (valid: %s)", name, strings.Join(KindNames(), ", "))
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case GDDR5:
		return "GDDR5"
	case Hetero:
		return "Hetero"
	case HybridGPU:
		return "HybridGPU"
	case Optane:
		return "Optane"
	case ZnGBase:
		return "ZnG-base"
	case ZnGRdopt:
		return "ZnG-rdopt"
	case ZnGWropt:
		return "ZnG-wropt"
	case ZnG:
		return "ZnG"
	}
	return "unknown"
}

// Result summarizes one simulation.
type Result struct {
	Kind     Kind
	Workload string // the mix's content ID (RunMix), or RunApps' label
	IPC      float64
	Cycles   sim.Tick
	Insts    uint64

	// Flash-array traffic (Fig. 11); zero for DRAM platforms.
	FlashReadGBps  float64
	FlashWriteGBps float64
	// Per-plane program counts (Fig. 8b heatmap), one per plane; nil
	// whenever no plane was programmed, on DRAM platforms and on flash
	// ones alike, so a missing array reads as all zeros.
	PlaneWrites []uint64

	L2HitRate  float64
	TLBHitRate float64
	Extra      map[string]float64
}

// FlashArrayGBps reports combined array bandwidth.
func (r Result) FlashArrayGBps() float64 { return r.FlashReadGBps + r.FlashWriteGBps }

// maxEvents caps a single simulation; hitting it means a deadlock or
// runaway configuration, which is a bug worth failing loudly on.
const maxEvents = 600_000_000

// RunMix simulates one platform on one workload mix at the given trace
// scale and returns its measurements, labelled with the mix's content
// ID: the cell key hashes that ID, so aliasing scenarios (consol-2 and
// bfs1-gaus) get one result whichever name asked. Any registered
// scenario or ad-hoc composition runs through here; co-resident apps
// split the SMs evenly, each in its own address space.
func RunMix(kind Kind, mix workload.Mix, scale float64, cfg config.Config) (Result, error) {
	apps, err := mix.Apps(scale)
	if err != nil {
		return Result{}, err
	}
	return RunApps(kind, mix.ID(), apps, cfg)
}

// RunApps simulates one platform running the given already-built apps
// and labels the result's Workload with label. It refuses a cfg that
// config.Config.Validate rejects before building anything, and returns
// a model panic, such as a valid flash that the trace outgrows
// ("ftl: plane out of data blocks"), as an error naming the platform.
func RunApps(kind Kind, label string, apps []*workload.App, cfg config.Config) (Result, error) {
	return runApps(kind, label, apps, cfg, maxEvents)
}

// runApps is RunApps stopping the simulation after limit events.
func runApps(kind Kind, label string, apps []*workload.App, cfg config.Config, limit uint64) (r Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = Result{}, fmt.Errorf("platform %v: %v", kind, p)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(apps) > cfg.GPU.SMs {
		return Result{}, fmt.Errorf("platform: %d co-resident apps exceed the %d SMs (each app needs at least one SM partition)",
			len(apps), cfg.GPU.SMs)
	}
	eng := sim.NewEngine()
	sys, err := build(eng, kind, cfg)
	if err != nil {
		return Result{}, err
	}
	sys.gpu.Launch(apps...)
	for !sys.gpu.Done() {
		if !eng.Step() {
			return Result{}, fmt.Errorf("platform %v: simulation deadlocked at tick %d", kind, eng.Now())
		}
		if eng.Fired() > limit {
			return Result{}, fmt.Errorf("platform %v: exceeded %d events", kind, limit)
		}
	}
	eng.Run() // drain stragglers (writebacks, background GC)
	return sys.collect(kind, label), nil
}

// system is one assembled platform.
type system struct {
	eng *sim.Engine
	cfg config.Config
	mmu *mmu.Unit
	l2  *cache.Cache
	gpu *gpu.GPU

	// collectExtra lets each backend contribute its measurements.
	collectExtra func(r *Result)
}

func build(eng *sim.Engine, kind Kind, cfg config.Config) (*system, error) {
	switch kind {
	case GDDR5:
		return buildDRAM(eng, cfg, cfg.GDDR5), nil
	case Optane:
		return buildDRAM(eng, cfg, cfg.Optane), nil
	case Hetero:
		return buildHetero(eng, cfg), nil
	case HybridGPU:
		return buildHybrid(eng, cfg), nil
	case ZnGBase, ZnGRdopt, ZnGWropt, ZnG:
		return buildZnG(eng, kind, cfg), nil
	}
	return nil, fmt.Errorf("platform: unknown kind %d", kind)
}

func (s *system) collect(kind Kind, label string) Result {
	r := Result{
		Kind:       kind,
		Workload:   label,
		IPC:        s.gpu.IPC(),
		Cycles:     s.gpu.Cycles(),
		Insts:      s.gpu.Insts.Value(),
		L2HitRate:  s.l2.HitRate(),
		TLBHitRate: s.mmu.L1HitRate(),
		Extra:      map[string]float64{},
	}
	if s.collectExtra != nil {
		s.collectExtra(&r)
	}
	return r
}

// gbps converts bytes over cycles to GB/s.
func gbps(bytes uint64, cycles sim.Tick) float64 {
	if cycles <= 0 {
		return 0
	}
	return config.BytesPerTickToGBps(float64(bytes) / float64(cycles))
}
