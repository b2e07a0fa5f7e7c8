// Package config transcribes Table I of the ZnG paper (system
// configuration of the simulated GTX580-class GPU with a GV100-class
// L2, the 800 GB-class Z-NAND SSD, Optane DC PMM timing, and the
// flash-network parameters) and derives the tick-domain constants the
// simulator uses.
//
// One simulator tick is one GPU core cycle at 1.2 GHz. All
// nanosecond-scale device parameters are converted with NsToTicks.
package config

import (
	"fmt"
	"reflect"

	"zng/internal/sim"
)

// GPUClockGHz is the SM core clock from Table I.
const GPUClockGHz = 1.2

// NsToTicks converts a duration in nanoseconds to core cycles,
// rounding up so no latency ever becomes free.
func NsToTicks(ns float64) sim.Tick {
	t := sim.Tick(ns * GPUClockGHz)
	if float64(t) < ns*GPUClockGHz {
		t++
	}
	if t < 1 && ns > 0 {
		t = 1
	}
	return t
}

// UsToTicks converts microseconds to core cycles.
func UsToTicks(us float64) sim.Tick { return NsToTicks(us * 1000) }

// GBpsToBytesPerTick converts a bandwidth in GB/s to bytes per core
// cycle for sim.Port widths.
func GBpsToBytesPerTick(gbps float64) float64 { return gbps / GPUClockGHz }

// TicksToNs converts core cycles back to nanoseconds (for reporting).
func TicksToNs(t sim.Tick) float64 { return float64(t) / GPUClockGHz }

// BytesPerTickToGBps converts a port width back to GB/s.
func BytesPerTickToGBps(w float64) float64 { return w * GPUClockGHz }

// GPU core and cache hierarchy (Table I, left column).
type GPU struct {
	SMs           int // streaming multiprocessors
	MaxWarps      int // resident warps per SM
	MaxPerWarpMem int // outstanding memory instructions per warp
}

// Cache describes one cache level.
type Cache struct {
	Sets      int
	Ways      int
	LineBytes int
	Banks     int
	ReadLat   sim.Tick // per-access hit latency
	WriteLat  sim.Tick // write hit latency (STT-MRAM write is slower)
	MSHRs     int      // outstanding distinct-line misses
	WriteBack bool
	ReadOnly  bool // ZnG configures the STT-MRAM L2 as a read-only cache
}

// SizeBytes reports total capacity.
func (c Cache) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes * max(1, c.Banks) }

// TLB and MMU (Section II-A academic design [18]).
type MMU struct {
	L1TLBEntries   int // per-SM
	WalkerThreads  int // highly-threaded page table walker
	WalkCacheEnt   int
	WalkMemLatency sim.Tick // memory access cost per walk step
	WalkLevels     int
	DBMTLatency    sim.Tick // block-mapping-table lookup inside the MMU (ZnG)
}

// Flash describes the Z-NAND backbone (Table I, middle column).
type Flash struct {
	Channels      int
	PackagesPerCh int
	DiesPerPkg    int
	PlanesPerDie  int
	BlocksPerPl   int
	PagesPerBlock int
	PageBytes     int
	RegsPerPlane  int // cache registers; 2 baseline, 8 in ZnG

	ReadLat    sim.Tick // tR: array sensing (3 us)
	ProgramLat sim.Tick // tPROG (100 us)
	EraseLat   sim.Tick // tERASE
	PECycles   int      // endurance per block (100k for SLC Z-NAND)

	// Legacy bus channel (HybridGPU): ONFI 800 MT/s.
	ChannelGBps float64
	// ZnG mesh network: 8 B links (8x the legacy channel width).
	MeshLinkGBps float64
	MeshHopLat   sim.Tick
	MeshDim      int // MeshDim x MeshDim router grid for 16 controllers
}

// Planes reports the total number of planes in the backbone.
func (f Flash) Planes() int {
	return f.Channels * f.PackagesPerCh * f.DiesPerPkg * f.PlanesPerDie
}

// BlockBytes reports the size of one flash block.
func (f Flash) BlockBytes() int { return f.PagesPerBlock * f.PageBytes }

// CapacityBytes reports the raw capacity of the backbone.
func (f Flash) CapacityBytes() int64 {
	return int64(f.Planes()) * int64(f.BlocksPerPl) * int64(f.BlockBytes())
}

// SSDEngine describes the embedded controller of the HybridGPU SSD
// module (Section III-A: 2–5 low-power cores; FTL processing is the
// dominant latency component at 67%).
type SSDEngine struct {
	Cores        int
	FTLLatPerReq sim.Tick // per-request firmware processing time
	DRAMBufGBps  float64  // single package, 32-bit bus
	DRAMBufLat   sim.Tick
	DRAMBufBytes int64 // data buffer capacity
	DispatchLat  sim.Tick
}

// DRAM describes a conventional memory backend.
type DRAM struct {
	Controllers int
	TotalGBps   float64  // aggregate across controllers
	ReadLat     sim.Tick // device read latency
	WriteLat    sim.Tick
	AccessGran  int // bytes per device access (Optane: 256 B)

	// Static properties used by Fig. 3.
	PkgCapacityGB float64
	PowerWPerGB   float64
}

// PCIe and host path (Hetero platform, Section II-C).
type Host struct {
	PCIeGBps      float64  // effective GPU<->host bandwidth
	SSDGBps       float64  // external NVMe SSD streaming bandwidth
	FaultFixedLat sim.Tick // interrupt + user/kernel switches + driver
	StagingCopyBW float64  // host DRAM redundant-copy bandwidth (GB/s)
	GPUMemPages   int      // resident GPU-memory pages before eviction
}

// Prefetch describes the ZnG dynamic read-prefetch module (Fig. 8a).
type Prefetch struct {
	TableEntries  int
	WarpSlots     int
	CounterBits   int
	CutoffThresh  int
	HighWaste     float64 // halve granularity above this waste ratio
	LowWaste      float64 // grow granularity below this
	GrowBytes     int     // +1 KB
	MinBytes      int
	MaxBytes      int
	InitialBytes  int
	MonitorWindow int // evictions per monitor decision
}

// RegCacheNet selects the flash-register interconnect (Section IV-C).
type RegCacheNet int

const (
	// SWnet migrates register data through the flash network routers.
	SWnet RegCacheNet = iota
	// FCnet is a fully-connected point-to-point register network.
	FCnet
	// NiF is the proposed Network-in-Flash: shared I/O path and data
	// path buses per plane group plus a local data-register network.
	NiF
)

// String implements fmt.Stringer.
func (n RegCacheNet) String() string {
	switch n {
	case SWnet:
		return "SWnet"
	case FCnet:
		return "FCnet"
	case NiF:
		return "NiF"
	}
	return "unknown"
}

// RegCache describes the fully-associative flash-register write cache.
type RegCache struct {
	Net          RegCacheNet
	LocalNetGBps float64 // NiF local network between data registers
	BusLat       sim.Tick
	ThrashWindow int     // writes per thrashing-checker decision
	ThrashRatio  float64 // miss ratio above which L2 pinning engages
	PinLines     int     // L2 lines pinned for excess dirty data
}

// FTL describes the ZnG split FTL and the HybridGPU monolithic FTL.
type FTL struct {
	DataBlocksPerLog int     // physical data blocks sharing one log block
	GCThreshold      float64 // free-block fraction triggering GC
	HelperThreadLat  sim.Tick
}

// Config aggregates the whole Table I system description.
type Config struct {
	GPU      GPU
	L1       Cache
	L2SRAM   Cache // 6 MB shared SRAM L2 (baselines)
	L2STT    Cache // 24 MB shared STT-MRAM L2 (ZnG)
	MMU      MMU
	Flash    Flash
	Engine   SSDEngine
	GDDR5    DRAM
	DDR4     DRAM
	LPDDR4   DRAM
	Optane   DRAM
	Host     Host
	Prefetch Prefetch
	RegCache RegCache
	FTL      FTL
}

// CheckLatencies reports the first negative sim.Tick field of c, named
// by its path from Config ("Flash.MeshHopLat"). The model cannot run a
// negative latency: an event it would schedule lands before the
// current tick, which the engine refuses, or the delay is silently
// taken as zero. The fields are found by walking the struct, so a
// latency added later is checked too; the walk allocates only for the
// error it returns.
func (c *Config) CheckLatencies() error {
	if path, t, ok := negativeTick(reflect.ValueOf(c).Elem()); ok {
		return fmt.Errorf("config: %s %d, want >= 0", path, t)
	}
	return nil
}

var tickType = reflect.TypeFor[sim.Tick]()

// negativeTick finds the first negative sim.Tick field of the struct v
// and returns its path from v.
func negativeTick(v reflect.Value) (path string, t sim.Tick, ok bool) {
	for i := range v.NumField() {
		f := v.Field(i)
		switch {
		case f.Type() == tickType:
			if t = sim.Tick(f.Int()); t < 0 {
				return v.Type().Field(i).Name, t, true
			}
		case f.Kind() == reflect.Struct:
			if path, t, ok = negativeTick(f); ok {
				return v.Type().Field(i).Name + "." + path, t, true
			}
		}
	}
	return "", 0, false
}

// Default returns the Table I configuration.
func Default() Config {
	return Config{
		GPU: GPU{
			SMs:           16,
			MaxWarps:      80,
			MaxPerWarpMem: 2,
		},
		L1: Cache{
			Sets: 64, Ways: 6, LineBytes: 128, Banks: 1,
			ReadLat: 1, WriteLat: 1, MSHRs: 32, WriteBack: false,
		},
		// 6 banks x 1024 sets x 8 ways x 128 B = 6 MB.
		L2SRAM: Cache{
			Sets: 1024, Ways: 8, LineBytes: 128, Banks: 6,
			ReadLat: 1, WriteLat: 1, MSHRs: 64, WriteBack: true,
		},
		// STT-MRAM quadruples capacity: 24 MB, write 5x read latency,
		// configured read-only in ZnG (writes bypass to flash registers).
		L2STT: Cache{
			Sets: 4096, Ways: 8, LineBytes: 128, Banks: 6,
			ReadLat: 1, WriteLat: 5, MSHRs: 128, WriteBack: false, ReadOnly: true,
		},
		MMU: MMU{
			L1TLBEntries:   64,
			WalkerThreads:  32,
			WalkCacheEnt:   1024,
			WalkMemLatency: 200,
			WalkLevels:     2,
			DBMTLatency:    4,
		},
		Flash: Flash{
			Channels: 16, PackagesPerCh: 1, DiesPerPkg: 8, PlanesPerDie: 8,
			BlocksPerPl: 1024, PagesPerBlock: 384, PageBytes: 4096,
			RegsPerPlane: 2,
			ReadLat:      UsToTicks(3),
			ProgramLat:   UsToTicks(100),
			EraseLat:     UsToTicks(1000),
			PECycles:     100_000,
			// 16 channels x 1.6 GB/s (ONFI 800 MT/s DDR) = 25.6 GB/s,
			// matching the accumulated flash-channel bandwidth of Fig. 1b.
			ChannelGBps: 1.6,
			// ZnG mesh: 8 B links at the same transfer rate: 6.4 GB/s/link.
			MeshLinkGBps: 6.4,
			MeshHopLat:   4,
			MeshDim:      4,
		},
		Engine: SSDEngine{
			// 4.8 GB/s engine throughput at 128 B requests (Fig. 1b):
			// 4 cores x one request per 106.7 ns.
			Cores:        4,
			FTLLatPerReq: NsToTicks(106.7),
			DRAMBufGBps:  11.2, // single package, 32-bit bus (Fig. 1b)
			DRAMBufLat:   NsToTicks(160),
			DRAMBufBytes: 2 << 30,
			DispatchLat:  NsToTicks(30),
		},
		GDDR5: DRAM{
			Controllers: 6, TotalGBps: 484,
			ReadLat: NsToTicks(200), WriteLat: NsToTicks(200), AccessGran: 128,
			PkgCapacityGB: 1, PowerWPerGB: 1.88,
		},
		DDR4: DRAM{
			Controllers: 6, TotalGBps: 256,
			ReadLat: NsToTicks(170), WriteLat: NsToTicks(170), AccessGran: 128,
			PkgCapacityGB: 2, PowerWPerGB: 0.38,
		},
		LPDDR4: DRAM{
			Controllers: 4, TotalGBps: 44.8,
			ReadLat: NsToTicks(220), WriteLat: NsToTicks(220), AccessGran: 128,
			PkgCapacityGB: 4, PowerWPerGB: 0.20,
		},
		// Optane DC PMM: Table I timing (tRCD 190 ns / tCL 8.9 ns /
		// tRP 763 ns), 256 B internal access granularity, six memory
		// controllers giving the ~39 GB/s accumulated bandwidth quoted
		// in Section V-B.
		Optane: DRAM{
			Controllers: 6, TotalGBps: 39,
			ReadLat:       NsToTicks(190 + 8.9),
			WriteLat:      NsToTicks(763),
			AccessGran:    256,
			PkgCapacityGB: 128, PowerWPerGB: 0.05,
		},
		Host: Host{
			PCIeGBps: 3.2,
			SSDGBps:  25.6,
			// Interrupt delivery, user/privilege-mode switches and driver
			// work per fault (Section II-C blames exactly these for the
			// GPU-SSD system's poor bandwidth).
			FaultFixedLat: UsToTicks(25),
			StagingCopyBW: 10,
			GPUMemPages:   1 << 18, // 1 GB of resident 4 KB pages
		},
		Prefetch: Prefetch{
			TableEntries:  512,
			WarpSlots:     5,
			CounterBits:   4,
			CutoffThresh:  12,
			HighWaste:     0.3,
			LowWaste:      0.05,
			GrowBytes:     1024,
			MinBytes:      128,
			MaxBytes:      4096,
			InitialBytes:  1024,
			MonitorWindow: 64,
		},
		RegCache: RegCache{
			Net:          NiF,
			LocalNetGBps: 6.4,
			BusLat:       8,
			ThrashWindow: 256,
			ThrashRatio:  0.5,
			PinLines:     4096,
		},
		FTL: FTL{
			DataBlocksPerLog: 8,
			GCThreshold:      0.05,
			HelperThreadLat:  NsToTicks(500),
		},
	}
}

// ZNANDPackageDensityGB is the per-package density used by Fig. 3a:
// Z-NAND offers 64x the density of a GDDR5 package.
const ZNANDPackageDensityGB = 64

// ZNANDPowerWPerGB is the Z-NAND power efficiency shown in Fig. 3b.
const ZNANDPowerWPerGB = 0.02

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
