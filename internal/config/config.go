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

// A numeric field's range tag declares the values the model runs:
// range:"lo,hi" admits lo through hi, and a third element, pow2,
// admits only powers of two, where the model masks with the value.
// A bound is a number or one of the names below. Lower bounds are the
// least value the model runs as the field says; caps bound the host
// memory and simulated time one cell can ask for. Validate checks
// every range, and the plan refuses a numeric field without one.
const (
	// MaxWays is the most ways a cache's LRU rank field orders.
	MaxWays = 128
	// maxLatency caps every sim.Tick field. The engine stops a cell
	// after 600M events, and that many events each this far apart stay
	// below the largest tick. The bandwidth floor, 0.001 GB/s, moves a
	// page of at most 8 KiB within that delay, even split over 64 DRAM
	// controllers.
	maxLatency = 1 << 32
	// maxPlanes caps Flash.Planes(), which sizes the per-plane tables
	// of the backbone, both FTLs and the register file.
	maxPlanes = 1 << 16
	// maxLines caps a cache's Sets × Ways × Banks, its tag words.
	maxLines = 1 << 20
)

// namedBounds are the names a range tag may use for a bound.
var namedBounds = map[string]float64{"MaxWays": MaxWays, "maxLatency": maxLatency}

// GPU core and cache hierarchy (Table I, left column).
type GPU struct {
	SMs           int `range:"1,64"` // streaming multiprocessors
	MaxPerWarpMem int `range:"1,64"` // outstanding memory instructions per warp
}

// Cache describes one cache level.
type Cache struct {
	Sets      int      `range:"1,1048576"`
	Ways      int      `range:"0,MaxWays"` // 0: every line bypasses the cache
	LineBytes int      `range:"2,4096,pow2"`
	Banks     int      `range:"1,64"`
	ReadLat   sim.Tick `range:"0,maxLatency"` // per-access hit latency
	WriteLat  sim.Tick `range:"0,maxLatency"` // write hit latency (STT-MRAM write is slower)
	MSHRs     int      `range:"1,4096"`       // outstanding distinct-line misses
	WriteBack bool
	ReadOnly  bool // ZnG configures the STT-MRAM L2 as a read-only cache
}

// Lines reports the cache's line frames, its tag words.
func (c Cache) Lines() int { return c.Sets * c.Ways * c.Banks }

// SizeBytes reports total capacity.
func (c Cache) SizeBytes() int { return c.Lines() * c.LineBytes }

// TLB and MMU (Section II-A academic design [18]).
type MMU struct {
	L1TLBEntries   int      `range:"1,4096"` // per-SM
	WalkerThreads  int      `range:"1,1024"` // highly-threaded page table walker
	WalkCacheEnt   int      `range:"1,65536"`
	WalkMemLatency sim.Tick `range:"0,maxLatency"` // memory access cost per walk step
	WalkLevels     int      `range:"1,8"`
	DBMTLatency    sim.Tick `range:"0,maxLatency"` // block-mapping-table lookup inside the MMU (ZnG)
}

// Flash describes the Z-NAND backbone (Table I, middle column). The
// page-mapped FTL packs a location into 24 bits of block and 16 of
// page, and a register's sector bitmap holds 64 sectors of 128 B; the
// block, page and page-size caps stay inside both.
type Flash struct {
	Channels      int `range:"1,256"`
	PackagesPerCh int `range:"1,64"`
	DiesPerPkg    int `range:"1,64"`
	PlanesPerDie  int `range:"1,64"`
	BlocksPerPl   int `range:"2,1048576"` // and above FTL.DataBlocksPerLog
	PagesPerBlock int `range:"1,4096"`
	PageBytes     int `range:"128,8192,pow2"`
	RegsPerPlane  int `range:"1,64"` // cache registers; 2 baseline, 8 in ZnG

	ReadLat    sim.Tick `range:"0,maxLatency"` // tR: array sensing (3 us)
	ProgramLat sim.Tick `range:"0,maxLatency"` // tPROG (100 us)
	EraseLat   sim.Tick `range:"0,maxLatency"` // tERASE
	PECycles   int      `range:"1,1073741824"` // endurance per block (100k for SLC Z-NAND)

	// Legacy bus channel (HybridGPU): ONFI 800 MT/s.
	ChannelGBps float64 `range:"0.001,1e6"`
	// ZnG mesh network: 8 B links (8x the legacy channel width), on
	// the smallest square grid with a router per package.
	MeshLinkGBps float64  `range:"0.001,1e6"`
	MeshHopLat   sim.Tick `range:"0,maxLatency"`
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
	Cores        int      `range:"1,1024"`
	FTLLatPerReq sim.Tick `range:"0,maxLatency"` // per-request firmware processing time
	DRAMBufGBps  float64  `range:"0.001,1e6"`    // single package, 32-bit bus
	DRAMBufLat   sim.Tick `range:"0,maxLatency"`
	DRAMBufBytes int64    `range:"8192,68719476736"` // data buffer capacity, at least one page
	DispatchLat  sim.Tick `range:"0,maxLatency"`
}

// DRAM describes a conventional memory backend.
type DRAM struct {
	Controllers int      `range:"1,64"`
	TotalGBps   float64  `range:"0.001,1e6"`    // aggregate across controllers
	ReadLat     sim.Tick `range:"0,maxLatency"` // device read latency
	WriteLat    sim.Tick `range:"0,maxLatency"`
	AccessGran  int      `range:"1,4096"` // bytes per device access (Optane: 256 B)
}

// PCIe and host path (Hetero platform, Section II-C).
type Host struct {
	PCIeGBps      float64  `range:"0.001,1e6"`    // effective GPU<->host bandwidth
	SSDGBps       float64  `range:"0.001,1e6"`    // external NVMe SSD streaming bandwidth
	FaultFixedLat sim.Tick `range:"0,maxLatency"` // interrupt + user/kernel switches + driver
	StagingCopyBW float64  `range:"0.001,1e6"`    // host DRAM redundant-copy bandwidth (GB/s)
	GPUMemPages   int      `range:"1,1073741824"` // resident GPU-memory pages before eviction
}

// Prefetch describes the ZnG dynamic read-prefetch module (Fig. 8a).
type Prefetch struct {
	TableEntries  int     `range:"1,65536"`
	WarpSlots     int     `range:"1,64"`
	CounterBits   int     `range:"1,30"`
	CutoffThresh  int     `range:"0,1073741824"` // 1<<30 is above every counter: prefetch off
	HighWaste     float64 `range:"0,1"`          // halve granularity above this waste ratio
	LowWaste      float64 `range:"0,1"`          // grow granularity below this
	GrowBytes     int     `range:"0,65536"`      // +1 KB
	MinBytes      int     `range:"0,65536"`
	MaxBytes      int     `range:"0,65536"`
	InitialBytes  int     `range:"0,65536"`
	MonitorWindow int     `range:"1,1048576"` // evictions per monitor decision
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
	Net          RegCacheNet `range:"0,2"`       // SWnet, FCnet or NiF
	LocalNetGBps float64     `range:"0.001,1e6"` // NiF local network between data registers
	BusLat       sim.Tick    `range:"0,maxLatency"`
	ThrashWindow int         `range:"1,1048576"` // writes per thrashing-checker decision
	ThrashRatio  float64     `range:"0,1"`       // miss ratio above which L2 pinning engages
	PinLines     int         `range:"0,1048576"` // L2 lines pinned for excess dirty data
}

// FTL describes the ZnG split FTL and the HybridGPU monolithic FTL.
type FTL struct {
	DataBlocksPerLog int      `range:"1,1048576"` // physical data blocks sharing one log block
	GCThreshold      float64  `range:"0,1"`       // free-block fraction triggering GC
	HelperThreadLat  sim.Tick `range:"0,maxLatency"`
}

// Config aggregates the Table I system a cell simulates. Every leaf is
// one a model reads, since every leaf enters the cell key: values only
// a figure reads, such as Fig. 3's densities and Fig. 4c's DDR4 and
// LPDDR4, live with that figure in internal/experiments.
type Config struct {
	GPU      GPU
	L1       Cache
	L2SRAM   Cache // 6 MB shared SRAM L2 (baselines)
	L2STT    Cache // 24 MB shared STT-MRAM L2 (ZnG)
	MMU      MMU
	Flash    Flash
	Engine   SSDEngine
	GDDR5    DRAM
	Optane   DRAM
	Host     Host
	Prefetch Prefetch
	RegCache RegCache
	FTL      FTL
}

// Validate reports the first value of c the model cannot run, naming
// it by its path from Config: a numeric field outside its declared
// range, a table size above its cap, or a plane without a block to
// spare for a log. A configuration can arrive from outside the program
// (zngd's "config" field), so platform.RunApps and zngd check it
// before building anything. A valid c costs no allocation.
func (c *Config) Validate() error {
	if err := plan.check(reflect.ValueOf(c).Elem()); err != nil {
		return err
	}
	if n := c.Flash.Planes(); n > maxPlanes {
		return fmt.Errorf("config: Flash.Planes() %d (Channels × PackagesPerCh × DiesPerPkg × PlanesPerDie), want at most %d", n, maxPlanes)
	}
	for _, cc := range [...]struct {
		path  string
		lines int
	}{{"L1", c.L1.Lines()}, {"L2SRAM", c.L2SRAM.Lines()}, {"L2STT", c.L2STT.Lines()}} {
		if cc.lines > maxLines {
			return fmt.Errorf("config: %s.Lines() %d (Sets × Ways × Banks), want at most %d", cc.path, cc.lines, maxLines)
		}
	}
	if b, d := c.Flash.BlocksPerPl, c.FTL.DataBlocksPerLog; b <= d {
		return fmt.Errorf("config: Flash.BlocksPerPl %d, want more than FTL.DataBlocksPerLog (%d)", b, d)
	}
	return nil
}

// Default returns the Table I configuration.
func Default() Config {
	return Config{
		GPU: GPU{
			SMs:           16,
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
		},
		// Optane DC PMM: Table I timing (tRCD 190 ns / tCL 8.9 ns /
		// tRP 763 ns), 256 B internal access granularity, six memory
		// controllers giving the ~39 GB/s accumulated bandwidth quoted
		// in Section V-B.
		Optane: DRAM{
			Controllers: 6, TotalGBps: 39,
			ReadLat:    NsToTicks(190 + 8.9),
			WriteLat:   NsToTicks(763),
			AccessGran: 256,
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
