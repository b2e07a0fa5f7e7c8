// Package workload generates the GPU memory traces the ZnG evaluation
// runs, organized as a scenario subsystem: the sixteen applications of
// Table II (graph analysis from GraphBIG-style suites plus scientific
// kernels), an additional generator family (an OLTP transaction
// stream), and a registry of named Mix scenarios — the twelve read-intensive +
// write-intensive co-run pairs of Figures 5, 10 and 11, per-app solo
// runs, 3- and 4-app consolidation mixes and read/write stress mixes.
//
// The paper drives MacSim with real program traces; those are not
// available, so this package substitutes deterministic synthetic
// generators calibrated to the statistics the paper reports and that
// the architecture actually responds to:
//
//   - read ratio per application (Table II),
//   - kernel count per application (Table II),
//   - read re-accesses per flash page, averaging ~42 (Fig. 5b),
//   - write redundancy per flash page, averaging ~65 (Fig. 5c),
//   - PC-stable sequential scans (what the prefetch predictor keys on)
//     mixed with power-law random gathers (what defeats it),
//   - warp-affine write working sets (the source of the asymmetric
//     per-plane write traffic of Fig. 8b).
//
// Streams are pure functions of (app, kernel, warp, step): re-running
// any simulation reproduces the identical trace.
package workload

import (
	"fmt"

	"zng/internal/rng"
)

// SectorBytes is the coalesced GPU memory access size (Section III-A:
// "the memory access size in GPU is 128B").
const SectorBytes = 128

// PageBytes is the flash page size accesses are grouped by for the
// reuse statistics of Fig. 5.
const PageBytes = 4096

// DefaultScale is the figure-quality trace scale: twice the Table II
// budgets, so working sets clearly exceed the 24 MB STT-MRAM L2. The
// figure defaults, zngsim and zngd's /v1/run fall back to it.
const DefaultScale = 2.0

// Access is one coalesced sector access emitted by a memory
// instruction.
type Access struct {
	Addr  uint64
	Write bool
}

// Inst is one warp instruction: an arithmetic run-length followed by
// an optional memory operation (the coalescer's output sectors).
//
// Acc aliases a per-stream scratch buffer: it is valid until the next
// Next call on the stream that produced it. Trace consumers issue an
// instruction's accesses before fetching the next instruction, and the
// aliasing removes one slice allocation per memory instruction —
// per-instruction garbage the trace generators cannot afford at the
// billions-of-events scale the simulator runs at.
type Inst struct {
	PC  uint64
	ALU int // arithmetic instructions preceding the memory op
	Acc []Access
}

// maxAccPerInst sizes the in-stream access buffer; gathers with more
// sectors than this (no Table II spec comes close) fall back to a
// heap-allocated slice.
const maxAccPerInst = 8

// Family selects a trace-generator behavior. The zero value is the
// Table II generic family; the other is the scenario-subsystem
// addition calibrated against related work rather than Table II.
type Family int

const (
	// FamilyGeneric is the Table II behavior: PC-stable sequential
	// scans, power-law random gathers, warp-affine bursty writes.
	FamilyGeneric Family = iota
	// FamilyOLTP is a transaction stream (high-throughput GPU OLTP
	// style): fixed-shape read-modify-write transactions of small
	// single-sector random row reads followed by one scattered row
	// update, with no scans and no write bursts — the access pattern
	// that thrashes page-granularity buffering and per-plane staging
	// registers alike.
	FamilyOLTP
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyGeneric:
		return "generic"
	case FamilyOLTP:
		return "oltp"
	}
	return "unknown"
}

// Spec statically describes one application of Table II plus the
// locality calibration targets.
type Spec struct {
	Name      string
	Suite     string  // "graph", "sci", "tx" or "stress"
	Family    Family  // trace-generator family (zero value: Table II generic)
	ReadRatio float64 // fraction of accesses that are reads (Table II)
	Kernels   int     // kernel launches (Table II)

	WarpsPerKernel int
	MemInstBudget  int // memory instructions across the whole app at scale 1

	ReadReuse   float64 // target reads per distinct read page (Fig. 5b)
	WriteRedund float64 // target writes per distinct written page (Fig. 5c)
	SeqFrac     float64 // fraction of read instructions that are scans
	RandSectors int     // sectors per random gather instruction
	ALUMean     int     // mean arithmetic run between memory ops
	Seed        int64
}

// App is an instantiated application: a Spec scaled to a concrete
// instruction budget with derived working-set pools.
type App struct {
	Spec Spec

	// Index gives the application a distinct virtual address space.
	Index int

	instPerWK int // memory instructions per (kernel, warp)
	hotPages  int // random-read pool size (pages)
	writePool int // write working-set size (pages)
	vaBase    uint64
}

// NewApp instantiates spec with the given trace scale (1.0 = full
// budget; tests use small fractions) and address-space index.
func NewApp(spec Spec, scale float64, index int) *App {
	if scale <= 0 {
		panic("workload: scale must be positive")
	}
	a := &App{Spec: spec, Index: index, vaBase: uint64(index+1) << 40}

	total := float64(spec.MemInstBudget) * scale
	perWK := int(total / float64(spec.Kernels*spec.WarpsPerKernel))
	if perWK < 4 {
		perWK = 4
	}
	a.instPerWK = perWK

	// Expected sector counts, used to size the reuse pools so the trace
	// lands on the Fig. 5 calibration targets.
	memInsts := float64(perWK * spec.Kernels * spec.WarpsPerKernel)
	readInsts := memInsts * a.readInstFrac()
	writeInsts := memInsts - readInsts
	seqInsts := readInsts * spec.SeqFrac
	gatherSectors := (readInsts - seqInsts) * float64(spec.RandSectors)
	readSectors := seqInsts + gatherSectors
	writeSectors := writeInsts

	seqPages := seqInsts * SectorBytes / PageBytes
	hot := readSectors/maxf(spec.ReadReuse, 1) - seqPages
	a.hotPages = int(maxf(hot, 1))
	a.writePool = int(maxf(writeSectors/maxf(spec.WriteRedund, 1), 1))
	return a
}

// readInstFrac converts the Table II *access* read ratio into the
// instruction-level read fraction, accounting for gathers emitting
// RandSectors sectors while writes emit one.
func (a *App) readInstFrac() float64 {
	s := a.Spec
	if s.ReadRatio >= 1 {
		return 1
	}
	// Average sectors per read instruction.
	rs := s.SeqFrac + (1-s.SeqFrac)*float64(s.RandSectors)
	// Solve p*rs / (p*rs + (1-p)) = ReadRatio for instruction fraction p.
	r := s.ReadRatio
	return r / (r + rs*(1-r))
}

// Kernels reports the number of kernel launches.
func (a *App) Kernels() int { return a.Spec.Kernels }

// Warps reports warps per kernel.
func (a *App) Warps() int { return a.Spec.WarpsPerKernel }

// MemInstsPerWarp reports memory instructions per (kernel, warp).
func (a *App) MemInstsPerWarp() int { return a.instPerWK }

// TotalMemInsts reports the total memory instructions in the trace.
func (a *App) TotalMemInsts() int {
	return a.instPerWK * a.Spec.Kernels * a.Spec.WarpsPerKernel
}

// WritePool reports the derived write working-set size.
func (a *App) WritePool() int { return a.writePool }

// VABase reports the base of the app's virtual address space.
func (a *App) VABase() uint64 { return a.vaBase }

// FootprintPages estimates the distinct pages the app touches: scan
// strips + hot pool + write pool.
func (a *App) FootprintPages() int {
	seqInsts := float64(a.TotalMemInsts()) * a.readInstFrac() * a.Spec.SeqFrac
	return int(seqInsts*SectorBytes/PageBytes) + a.hotPages + a.writePool + 2
}

// Address-space regions within an app.
const (
	regSeq   = 0 << 36
	regHot   = 1 << 36
	regWrite = 2 << 36
)

// Stream generates the instruction sequence of one warp in one kernel.
type Stream struct {
	app    *App
	kernel int
	warp   int
	rng    rng.RNG
	step   int

	seqCursor uint64
	readFrac  float64 // instruction-level read probability

	// OLTP-family state: reads remaining before the transaction's
	// read-modify-write store (txnReads per transaction).
	txnReads, txnPos int

	// accBuf backs Inst.Acc between Next calls (see Inst).
	accBuf [maxAccPerInst]Access

	// Write burst state: a warp keeps storing into one page for a few
	// consecutive writes (real stores exhibit temporal locality within
	// a page; without it, per-plane staging registers would thrash on
	// literally every store).
	writeVP   uint64
	writeLeft int
}

// writeBurst is the number of consecutive stores a warp issues to one
// page before redrawing: most of a page's ~65x write redundancy
// (Fig. 5c) arrives in temporal bursts, which is what lets even a
// single per-plane staging register absorb a good fraction of it.
const writeBurst = 32

// Stream returns the deterministic instruction stream for (kernel,
// warp). kernel and warp must be in range.
func (a *App) Stream(kernel, warp int) *Stream {
	s := new(Stream)
	a.ResetStream(s, kernel, warp)
	return s
}

// ResetStream makes s the stream for (kernel, warp), exactly as Stream
// would build it, so a consumer can reuse one Stream across kernels.
func (a *App) ResetStream(s *Stream, kernel, warp int) {
	if kernel < 0 || kernel >= a.Spec.Kernels {
		panic(fmt.Sprintf("workload: kernel %d out of range", kernel))
	}
	if warp < 0 || warp >= a.Spec.WarpsPerKernel {
		panic(fmt.Sprintf("workload: warp %d out of range", warp))
	}
	seed := uint64(a.Spec.Seed) ^ uint64(a.Index)<<48 ^ uint64(kernel)<<24 ^ uint64(warp)
	strip := uint64(kernel*a.Spec.WarpsPerKernel+warp) * uint64(a.instPerWK) * SectorBytes
	*s = Stream{
		app:       a,
		kernel:    kernel,
		warp:      warp,
		rng:       rng.New(seed),
		seqCursor: a.vaBase + regSeq + strip,
		readFrac:  a.readInstFrac(),
	}
	if a.Spec.Family == FamilyOLTP {
		s.txnReads = oltpTxnReads(a.Spec.ReadRatio)
	}
}

// oltpTxnReads converts an OLTP access-level read ratio r into the
// reads-per-transaction count k of the fixed k-reads-then-one-write
// transaction shape (r = k/(k+1), every access one sector).
func oltpTxnReads(ratio float64) int {
	if ratio >= 1 {
		panic("workload: OLTP specs need writes (ReadRatio < 1)")
	}
	k := int(ratio/(1-ratio) + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// Next returns the next instruction, or ok=false at stream end.
func (s *Stream) Next() (inst Inst, ok bool) {
	if s.step >= s.app.instPerWK {
		return Inst{}, false
	}
	spec := s.app.Spec
	s.step++

	alu := 1
	if spec.ALUMean > 1 {
		alu = 1 + s.rng.Intn(2*spec.ALUMean-1) // mean ~= ALUMean
	}

	// OLTP transactions have a fixed shape (k reads, then the store),
	// not a probabilistic mix — the access-level read ratio is exact.
	if spec.Family == FamilyOLTP {
		return s.nextOLTP(alu), true
	}

	// Choose read vs write with the instruction-level probability that
	// yields the Table II access-level read ratio. The draw comes from
	// the per-warp seeded generator, so traces remain deterministic;
	// per-warp streams are too short for error diffusion at ratios
	// like 0.99 (one write per ~300 sectors).
	doRead := spec.ReadRatio >= 1 || s.rng.Float64() < s.readFrac

	// PCs are stable across kernels: graph kernels re-execute the same
	// LD/ST instructions, which is what lets the PC-indexed predictor
	// accumulate history over the whole run.
	pcBase := uint64(s.app.Index+1) << 20
	switch {
	case doRead && s.rng.Float64() < spec.SeqFrac:
		// Sequential scan: PC-stable, advances one sector per visit.
		// This is the pattern the ZnG predictor detects (Section IV-B).
		addr := s.seqCursor
		s.seqCursor += SectorBytes

		inst = Inst{PC: pcBase | 0x10, ALU: alu, Acc: append(s.accBuf[:0], Access{Addr: addr})}
	case doRead:
		// Random gather over the hot pool with quadratic skew: a graph
		// neighbour list is a short contiguous run inside one random
		// page. This is the structure behind Fig. 5b's page-level read
		// re-use — the same pages keep being re-read from different
		// offsets — and it is what a page-granularity buffer (ZnG's L2
		// prefetch) can exploit while a sector-granularity memory
		// cannot.
		n := spec.RandSectors
		if n < 1 {
			n = 1
		}
		page := s.zipfPage(s.app.hotPages)
		sectors := uint64(PageBytes / SectorBytes)
		start := uint64(s.rng.Intn(int(sectors)))
		acc := s.accBuf[:0]
		for i := 0; i < n; i++ {
			sector := (start + uint64(i)) % sectors
			acc = append(acc, Access{Addr: s.app.vaBase + regHot + page*PageBytes + sector*SectorBytes})
		}
		inst = Inst{PC: pcBase | 0x20, ALU: alu, Acc: acc}
	default:
		// Write: warp-affine selection over clustered chunks of the
		// write pool. Chunk clustering places WriteClusterPages distinct
		// hot pages on the same flash plane (stride-1024 pages share a
		// plane under page striping for every power-of-two plane count),
		// reproducing the asymmetric per-plane write pressure of
		// Fig. 8b — the pressure that thrashes per-plane registers and
		// motivates grouping them (Section IV-C).
		if s.writeLeft > 0 {
			s.writeLeft--
		} else {
			pool := s.app.writePool
			chunks := (pool + WriteClusterPages - 1) / WriteClusterPages
			window := 8
			if window > chunks {
				window = chunks
			}
			base := s.warp * 3 % chunks
			chunk := (base + s.rng.Intn(window)) % chunks
			within := s.rng.Intn(WriteClusterPages)
			// chunk*37 spreads chunks across the whole backbone (37 is
			// coprime with every power-of-two plane count, so the map
			// stays injective and hot chunks land on scattered planes,
			// not the first few channels).
			s.writeVP = uint64(chunk)*37 + planeStridePages*uint64(within)
			if chunks >= planeStridePages {
				// Pool too large for collision-free clustering: fall back
				// to the plain linear layout.
				s.writeVP = uint64(chunk*WriteClusterPages + within)
			}
			s.writeLeft = writeBurst - 1
		}
		sector := uint64(s.rng.Intn(PageBytes / SectorBytes))
		inst = Inst{PC: pcBase | 0x30, ALU: alu,
			Acc: append(s.accBuf[:0], Access{Addr: s.app.vaBase + regWrite + s.writeVP*PageBytes + sector*SectorBytes, Write: true})}
	}
	return inst, true
}

// nextOLTP emits the next instruction of the fixed read-modify-write
// transaction shape: txnReads single-sector row reads skewed over the
// hot pool, then one store skewed over the row-update pool. Stores are
// never bursty — each one redraws its page — which is exactly the
// scattered small-write pressure that defeats per-plane staging
// registers and page-granularity write buffering.
func (s *Stream) nextOLTP(alu int) Inst {
	pcBase := uint64(s.app.Index+1) << 20
	sector := uint64(s.rng.Intn(PageBytes / SectorBytes))
	if s.txnPos < s.txnReads {
		s.txnPos++
		page := s.zipfPage(s.app.hotPages)
		return Inst{PC: pcBase | 0x40, ALU: alu,
			Acc: append(s.accBuf[:0], Access{Addr: s.app.vaBase + regHot + page*PageBytes + sector*SectorBytes})}
	}
	s.txnPos = 0
	page := s.zipfPage(s.app.writePool)
	return Inst{PC: pcBase | 0x50, ALU: alu,
		Acc: append(s.accBuf[:0], Access{Addr: s.app.vaBase + regWrite + page*PageBytes + sector*SectorBytes, Write: true})}
}

// WriteClusterPages is the number of distinct hot write pages that
// share one flash plane (see the write branch of Stream.Next).
const WriteClusterPages = 8

// planeStridePages is the page stride that maps back to the same
// plane: the full backbone has 1,024 planes, and every smaller test
// geometry uses a power-of-two divisor of it.
const planeStridePages = 1024

// zipfPage draws a page index in [0, n) skewed toward low indexes.
func (s *Stream) zipfPage(n int) uint64 {
	return uint64(s.zipfInt(n))
}

func (s *Stream) zipfInt(n int) int {
	if n <= 1 {
		return 0
	}
	u := s.rng.Float64()
	return int(float64(n) * u * u)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
