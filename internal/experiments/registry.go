package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"zng/internal/stats"
	"zng/internal/workload"
)

// Figure is one registered table, figure or ablation of the
// reproduction: the driver that regenerates it, where it sits in the
// ZnG paper, the paper's claim in one sentence, and the qualitative
// shape this codebase asserts about its own measurement. The registry
// is the single source of truth for zngfig's figure ids and for the
// generated docs/EXPERIMENTS.md and docs/DESIGN.md.
type Figure struct {
	// ID is the zngfig figure id, e.g. "fig10" or "abl-gc".
	ID string
	// Ref locates the figure in the paper, e.g. "Sec. V-B, Fig. 10".
	// Ablations beyond the paper's evaluation say so explicitly.
	Ref string
	// Title is a short human-readable name.
	Title string
	// Claim states the paper's finding in one sentence.
	Claim string
	// Shape states the qualitative property Check asserts about the
	// measured table.
	Shape string
	// ScaleFree marks figures that ignore Options.Scale and
	// Options.Mixes entirely and read only the run's configuration,
	// Options.Cfg.
	ScaleFree bool
	// Run is the driver itself, an exported function of this package
	// named directly (znglint's registry analyzer rejects a closure or
	// an unexported helper): it regenerates the figure's table under
	// the given options. The table is the figure's only output, so
	// everything Check, zngfig and the docs read is in it.
	Run func(Options) (*stats.Table, error)
	// Check validates Shape against the measured table; nil error
	// means the paper's qualitative shape holds in this reproduction.
	// Tier-1 requires every Check to pass on a one-pair TestOptions
	// run (internal/report's TestExperimentsDocDeterministic).
	Check func(*stats.Table) error
}

// DriverName is the name Run is declared under, e.g. "Fig10", as the
// docs' inventory and the figure benchmarks print it. The registry
// analyzer keeps every Run a declared driver, never a closure.
func (f Figure) DriverName() string {
	name := runtime.FuncForPC(reflect.ValueOf(f.Run).Pointer()).Name()
	return name[strings.LastIndexByte(name, '.')+1:]
}

// VerdictPass is the verdict of a figure whose shape check passes.
const VerdictPass = "PASS"

// Verdict runs the figure's shape check on its table and says how it
// went, as docs/EXPERIMENTS.md and zngfig print it: PASS, or FAIL with
// the check's error.
func (f Figure) Verdict(t *stats.Table) string {
	if err := f.Check(t); err != nil {
		return "FAIL — " + err.Error()
	}
	return VerdictPass
}

// DocsOptions returns the canonical options for generated-docs runs
// (docs/EXPERIMENTS.md): the TestOptions regime — shrunken traces with
// the L2s scaled down alongside them so cache pressure stays realistic
// — but across all twelve co-run pairs, so the documented tables cover
// the full Fig. 10 matrix while staying cheap enough for CI's
// docs-freshness job.
func DocsOptions() Options {
	o := TestOptions()
	o.Mixes = workload.PaperPairs()
	return o
}

// Registry lists every figure in the order the paper presents them,
// ablations last. zngfig's id list, the generated docs and the
// registry-completeness test all derive from this slice.
func Registry() []Figure {
	return []Figure{
		{
			ID: "table1", Ref: "Sec. V-A, Table I", Title: "System configuration", ScaleFree: true,
			Claim: "The evaluated GTX580-class GPU pairs 16 SMs with a 24 MB STT-MRAM L2 and an 800 GB-class Z-NAND backbone (3 us reads, 100 us programs, 100k P/E).",
			Shape: "The transcription carries the Z-NAND geometry/timing, the mesh flash network and the Optane DC PMM timing of Table I.",
			Run:   TableI,
			Check: checkTableI,
		},
		{
			ID: "table2", Ref: "Sec. V-A, Table II", Title: "GPU benchmarks",
			Claim: "The sixteen benchmarks span graph analytics and scientific kernels whose read ratios range from write-heavy (~46%) to almost pure-read (~99%).",
			Shape: "All sixteen apps generate traces and the measured read ratio of every trace tracks the paper's per-app column within 0.15.",
			Run:   TableII,
			Check: checkTableII,
		},
		{
			ID: "fig1b", Ref: "Sec. I, Fig. 1b", Title: "HybridGPU component bandwidths", ScaleFree: true,
			Claim: "Z-NAND arrays can stream far more bandwidth than the DRAM buffer, legacy channels or SSD engine that HybridGPU puts in front of them, leaving an order-of-magnitude gap to GDDR5.",
			Shape: "flash read > flash channel > DRAM buffer > SSD engine, reads out-pace programs, and the GDDR5 gap line exceeds 10x the DRAM buffer.",
			Run:   Fig1b,
			Check: checkFig1b,
		},
		{
			ID: "fig3", Ref: "Sec. II-B, Fig. 3", Title: "Density and power per package", ScaleFree: true,
			Claim: "Z-NAND offers the highest per-package density at the lowest power per GB among GDDR5, DDR4 and LPDDR4.",
			Shape: "The Z-NAND row has the maximum density and the minimum W/GB of the four media.",
			Run:   Fig3,
			Check: checkFig3,
		},
		{
			ID: "fig4c", Ref: "Sec. II-C, Fig. 4c", Title: "Max data access throughput", ScaleFree: true,
			Claim: "On 128 B accesses GPU DRAM outperforms the host-mediated GPU-SSD path by ~80x and HybridGPU by ~40x.",
			Shape: "GDDR5 > DDR4 > LPDDR4 > ZSSD, HybridGPU beats GPU-SSD, and the GDDR5/GPU-SSD ratio is at least 30x.",
			Run:   Fig4c,
			Check: checkFig4c,
		},
		{
			ID: "fig4d", Ref: "Sec. II-C, Fig. 4d", Title: "Memory-access latency breakdown", ScaleFree: true,
			Claim: "The SSD engine's firmware alone accounts for about two thirds of HybridGPU's loaded memory latency.",
			Shape: "HybridGPU's total exceeds the conventional GPU's, with the SSD engine the dominant component (>30% of the total).",
			Run:   Fig4d,
			Check: checkFig4d,
		},
		{
			ID: "fig5a", Ref: "Sec. III-A, Fig. 5a", Title: "Direct Z-NAND degradation",
			Claim: "Serving GPU memory requests directly from Z-NAND (no buffering) degrades performance by up to ~28x versus GDDR5.",
			Shape: "Degradation is at least 5x on every co-run pair.",
			Run:   Fig5a,
			Check: checkFig5a,
		},
		{
			ID: "fig5bcd", Ref: "Sec. III-A, Fig. 5b-d", Title: "Workload locality characterization",
			Claim: "GPU co-run workloads re-read flash pages ~42x and rewrite them ~65x on average, and reads dominate the access mix.",
			Shape: "Average read re-access and write redundancy both exceed 1, so register caching and prefetching have locality to harvest.",
			Run:   Fig5bcd,
			Check: checkFig5bcd,
		},
		{
			ID: "fig8b", Ref: "Sec. IV-C, Fig. 8b", Title: "Asymmetric Z-NAND writes",
			Claim: "Writes concentrate on a small subset of planes, leaving most per-plane register caches idle — the motivation for grouping them.",
			Shape: "Per-plane program counts are visibly non-uniform (some plane group differs from its channel's peak).",
			Run:   Fig8b,
			Check: checkFig8b,
		},
		{
			ID: "fig10", Ref: "Sec. V-B, Fig. 10", Title: "Normalized IPC, all platforms",
			Claim: "ZnG outperforms HybridGPU by 1.9x on average (up to 12.6x) and its read and write optimizations are both needed to get there.",
			Shape: "On the workload average ZnG > HybridGPU > ZnG-base, with every platform normalized to ZnG = 1.",
			Run:   Fig10,
			Check: checkFig10,
		},
		{
			ID: "fig11", Ref: "Sec. V-B, Fig. 11", Title: "Flash array bandwidth",
			Claim: "ZnG's optimizations raise delivered flash-array bandwidth well above HybridGPU's channel- and engine-throttled path.",
			Shape: "Average ZnG array bandwidth exceeds average HybridGPU array bandwidth.",
			Run:   Fig11,
			Check: checkFig11,
		},
		{
			ID: "fig12", Ref: "Sec. V-C, Fig. 12", Title: "Read-path effectiveness",
			Claim: "The dynamic prefetcher fills the STT-MRAM L2 from already-sensed flash pages, raising L2 hits and cutting demand fills.",
			Shape: "ZnG-rdopt prefetches a non-zero volume and its mean L2 hit rate is at least ZnG-base's.",
			Run:   Fig12,
			Check: checkFig12,
		},
		{
			ID: "fig13", Ref: "Sec. V-D, Fig. 13", Title: "Prefetch threshold sensitivity",
			Claim: "Performance is stable across a wide waste-threshold region; the paper lands on high=0.3, low=0.05.",
			Shape: "Every (high, low) cell simulates to a positive IPC — no threshold choice collapses the read path.",
			Run:   Fig13Sweep,
			Check: checkFig13,
		},
		{
			ID: "abl-writenet", Ref: "ablation (Sec. IV-C)", Title: "Register interconnect ablation",
			Claim: "The network-in-flash (NiF) approaches fully-connected (FCnet) write absorption at mesh cost, where a plain switched bus (SWnet) serializes.",
			Shape: "All three interconnects sustain positive IPC on the write-heavy pairs and NiF's register migrations are counted.",
			Run:   AblationWriteNet,
			Check: checkAblWriteNet,
		},
		{
			ID: "abl-consolidation", Ref: "ablation (beyond Sec. V-A's 2-app co-runs)", Title: "Consolidation sweep",
			Claim: "The paper evaluates 2-app co-runs only; stacking more tenants should favor ZnG, whose flash arrays serve requests directly, over HybridGPU, whose SSD engine serializes every miss.",
			Shape: "Both platforms sustain positive IPC at every co-run degree 1-4, and ZnG retains at least as much of its solo IPC as HybridGPU does at the highest degree.",
			Run:   AblationConsolidation,
			Check: checkAblConsolidation,
		},
		{
			ID: "abl-gc", Ref: "ablation (Sec. III-B/IV-A)", Title: "Split-FTL garbage collection", ScaleFree: true,
			Claim: "The split FTL's helper-thread merges reclaim log blocks without stalling the write path, and wear levelling bounds per-block erase counts.",
			Shape: "Merges occur under rewrite pressure, max erase count stays within the merge count, and write amplification is at least 1.",
			Run:   AblationGC,
			Check: checkAblGC,
		},
		{
			ID: "abl-l2", Ref: "ablation (Sec. IV-B)", Title: "L2 capacity sweep",
			Claim: "Replacing the 6 MB SRAM L2 with the 24 MB STT-MRAM array is what gives the prefetcher room to work; capacity beyond that shows diminishing returns.",
			Shape: "Swept capacities ascend and every configuration sustains a positive IPC and L2 hit rate.",
			Run:   AblationL2,
			Check: checkAblL2,
		},
	}
}

// FigureIDs lists the registered ids in registry order.
func FigureIDs() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, f := range reg {
		out[i] = f.ID
	}
	return out
}

// FigureByID resolves a zngfig figure id. Unknown ids fail fast with
// the full valid-id list so a typo never surfaces late or silently.
func FigureByID(id string) (Figure, error) {
	for _, f := range Registry() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("unknown figure id %q (valid: %s, all, docs)",
		id, strings.Join(FigureIDs(), ", "))
}

// --- shape checks -----------------------------------------------------
//
// Each check validates its figure's Shape on the rendered table, the
// one place it is asserted: docs/EXPERIMENTS.md and zngfig report its
// verdict, and tier-1 requires it to pass. A check reads the table
// through cells, by row label and column header, never by position.

// cells reads a figure's table by row label (a row's first cell) and
// column header. Like wire.Decoder it keeps the first failure, here a
// read of a missing row or column or of a non-numeric cell, or an unmet
// requirement, and every later read returns the zero value. So a check
// reads and requires in sequence, and returns err: the first failure,
// as if it had stopped there.
type cells struct {
	t   *stats.Table
	err error
}

// labels lists the row labels in table order.
func (c *cells) labels() []string {
	out := make([]string, c.t.Rows())
	for r := range out {
		if row := c.t.Row(r); len(row) > 0 {
			out[r] = row[0]
		}
	}
	return out
}

// at finds the cell in column col of the first row labelled row, with
// its position. A cell a short row omits reads "", so a malformed
// table fails a check instead of panicking it.
func (c *cells) at(row, col string) (s string, r, k int) {
	if c.err != nil {
		return "", 0, 0
	}
	r, k = slices.Index(c.labels(), row), slices.Index(c.t.Header(), col)
	switch {
	case r < 0:
		c.err = fmt.Errorf("no row %q", row)
	case k < 0:
		c.err = fmt.Errorf("no column %q", col)
	case k < len(c.t.Row(r)):
		s = c.t.Cell(r, k)
	}
	return s, r, k
}

// str reads the cell in column col of row row.
func (c *cells) str(row, col string) string {
	s, _, _ := c.at(row, col)
	return s
}

// num reads the cell in column col of row row as a number.
func (c *cells) num(row, col string) float64 {
	s, r, k := c.at(row, col)
	if c.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		c.err = fmt.Errorf("cell (%d,%d) %q is not numeric", r, k, s)
		return 0
	}
	return v
}

// require records a failure, formatted as fmt.Errorf formats it,
// unless ok or a failure is already recorded.
func (c *cells) require(ok bool, format string, args ...any) {
	if !ok && c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// descending requires each named row to exceed the next in column col.
func (c *cells) descending(col string, rows ...string) {
	for i := 1; i < len(rows); i++ {
		hi, lo := c.num(rows[i-1], col), c.num(rows[i], col)
		c.require(hi > lo, "%s (%v) must exceed %s (%v)", rows[i-1], hi, rows[i], lo)
	}
}

func checkTableI(t *stats.Table) error {
	c := cells{t: t}
	c.require(t.Rows() >= 15, "only %d configuration rows", t.Rows())
	c.str("Z-NAND", "value") // a read requires the row
	c.require(c.str("Flash network", "value") == "mesh", `missing "mesh"`)
	c.str("Optane DC PMM", "value")
	return c.err
}

func checkTableII(t *stats.Table) error {
	c := cells{t: t}
	c.require(t.Rows() == 16, "rows = %d, want the 16 Table II apps", t.Rows())
	for _, app := range c.labels() {
		paper, meas := c.num(app, "read ratio (paper)"), c.num(app, "read ratio (measured)")
		c.require(math.Abs(meas-paper) <= 0.15, "%s: measured read ratio %.3f vs paper %.3f (|delta| > 0.15)",
			app, meas, paper)
	}
	return c.err
}

func checkFig1b(t *stats.Table) error {
	c := cells{t: t}
	c.descending("GB/s", "flash read", "flash channel", "DRAM buffer", "SSD engine")
	read, write := c.num("flash read", "GB/s"), c.num("flash write", "GB/s")
	c.require(read > write, "array reads must out-pace programs: flash read (%v) must exceed flash write (%v)", read, write)
	gap, buf := c.num("GDDR5 (gap line)", "GB/s"), c.num("DRAM buffer", "GB/s")
	c.require(gap > 10*buf, "GDDR5 gap (%v) must exceed 10x the DRAM buffer (%v)", gap, buf)
	return c.err
}

func checkFig3(t *stats.Table) error {
	c := cells{t: t}
	znDens, znPow := c.num("Z-NAND", "density (GB)"), c.num("Z-NAND", "power (W/GB)")
	for _, m := range c.labels() {
		if m == "Z-NAND" {
			continue
		}
		dens, pow := c.num(m, "density (GB)"), c.num(m, "power (W/GB)")
		c.require(dens < znDens, "%s density %v >= Z-NAND %v", m, dens, znDens)
		c.require(pow > znPow, "%s power %v <= Z-NAND %v", m, pow, znPow)
	}
	return c.err
}

func checkFig4c(t *stats.Table) error {
	c := cells{t: t}
	c.descending("GB/s", "GDDR5", "DDR4", "LPDDR4", "ZSSD")
	hyb, host := c.num("HybridGPU", "GB/s"), c.num("GPU-SSD", "GB/s")
	c.require(hyb > host, "HybridGPU must beat host-mediated GPU-SSD: HybridGPU (%v) must exceed GPU-SSD (%v)", hyb, host)
	r := c.num("GDDR5", "GB/s") / host
	c.require(r >= 30, "GDDR5/GPU-SSD ratio %.0fx, want >= 30x (paper ~80x)", r)
	return c.err
}

func checkFig4d(t *stats.Table) error {
	c := cells{t: t}
	gpuTot, hybTot := c.num("TOTAL", "GPU(DRAM)"), c.num("TOTAL", "HybridGPU")
	c.require(hybTot > gpuTot, "HybridGPU total %v must exceed GPU total %v", hybTot, gpuTot)
	frac := c.num("SSD engine", "HybridGPU") / hybTot
	c.require(frac >= 0.3, "SSD engine fraction %.2f, want dominant (paper 0.67)", frac)
	return c.err
}

func checkFig5a(t *stats.Table) error {
	c := cells{t: t}
	for _, m := range c.labels() {
		d := c.num(m, "degradation (x)")
		c.require(d >= 5, "%s: degradation %.1fx, want >= 5x (paper up to 28x)", m, d)
	}
	return c.err
}

func checkFig5bcd(t *stats.Table) error {
	c := cells{t: t}
	reuse, redund := c.num("AVERAGE", "read re-accesses"), c.num("AVERAGE", "write redundancy")
	c.require(reuse > 1, "average read re-access %.2f, want > 1", reuse)
	c.require(redund > 1, "average write redundancy %.2f, want > 1", redund)
	return c.err
}

func checkFig8b(t *stats.Table) error {
	c := cells{t: t}
	anyWrites, asymmetric := false, false
	var firstTotal float64
	for i, ch := range c.labels() {
		lo, hi, tot := c.num(ch, "min"), c.num(ch, "max"), c.num(ch, "total")
		if i == 0 {
			firstTotal = tot
		}
		anyWrites = anyWrites || hi > 0
		// Skew within a channel or across channels both count.
		asymmetric = asymmetric || lo != hi || tot != firstTotal
	}
	c.require(anyWrites, "no programs recorded")
	c.require(asymmetric, "write distribution perfectly uniform; Fig. 8b asymmetry absent")
	return c.err
}

func checkFig10(t *stats.Table) error {
	c := cells{t: t}
	zng, hyb, base := c.num("AVERAGE", "ZnG"), c.num("AVERAGE", "HybridGPU"), c.num("AVERAGE", "ZnG-base")
	c.require(zng == 1, "normalization broken: ZnG average %v != 1", zng)
	c.require(hyb < zng, "ZnG must beat HybridGPU (%v) on average", hyb)
	c.require(base < hyb, "ZnG-base (%v) must trail HybridGPU (%v) on average", base, hyb)
	return c.err
}

func checkFig11(t *stats.Table) error {
	c := cells{t: t}
	hyb, zng := c.num("AVERAGE", "HybridGPU"), c.num("AVERAGE", "ZnG")
	c.require(zng > hyb, "ZnG average bandwidth %.2f must exceed HybridGPU's %.2f", zng, hyb)
	return c.err
}

func checkFig12(t *stats.Table) error {
	c := cells{t: t}
	var pfTotal, baseSum, rdSum float64
	for _, m := range c.labels() {
		pfTotal += c.num(m, "prefetch KB (rdopt)")
		baseSum += c.num(m, "L2 hit (base)")
		rdSum += c.num(m, "L2 hit (rdopt)")
	}
	n := float64(t.Rows())
	c.require(pfTotal > 0, "rdopt prefetched nothing")
	c.require(rdSum >= baseSum, "mean rdopt L2 hit rate %.3f below base %.3f", rdSum/n, baseSum/n)
	return c.err
}

func checkFig13(t *stats.Table) error {
	c := cells{t: t}
	for _, hi := range c.labels() {
		for i, lo := range t.Header()[1:] {
			v := c.num(hi, lo)
			c.require(v > 0, "threshold cell (high=%s, low#%d) collapsed to IPC %v", hi, i+1, v)
		}
	}
	return c.err
}

func checkAblWriteNet(t *stats.Table) error {
	c := cells{t: t}
	c.require(t.Rows() >= 2, "rows = %d, want the two write-heavy pairs", t.Rows())
	for _, pair := range c.labels() {
		for _, net := range []string{"SWnet", "FCnet", "NiF"} {
			v := c.num(pair, net)
			c.require(v > 0, "%s: %s IPC %v, want positive", pair, net, v)
		}
	}
	return c.err
}

func checkAblConsolidation(t *stats.Table) error {
	if t.Rows() != workload.ConsolidationDegrees {
		return fmt.Errorf("rows = %d, want co-run degrees 1-%d", t.Rows(), workload.ConsolidationDegrees)
	}
	c := cells{t: t}
	mixes := c.labels()
	for _, mix := range mixes {
		for _, p := range []string{"HybridGPU", "ZnG"} {
			v := c.num(mix, p)
			c.require(v > 0, "%s: IPC %v, want positive", mix, v)
		}
	}
	last := mixes[len(mixes)-1]
	hybNorm, zngNorm := c.num(last, "HybridGPU (vs solo)"), c.num(last, "ZnG (vs solo)")
	c.require(zngNorm >= hybNorm, "at degree %d ZnG retains %.3f of solo IPC vs HybridGPU's %.3f: ZnG must degrade at least as gracefully",
		len(mixes), zngNorm, hybNorm)
	return c.err
}

func checkAblGC(t *stats.Table) error {
	c := cells{t: t}
	merges := c.num("log merges", "value")
	c.require(merges != 0, "no merges under rewrite pressure")
	maxErase := c.num("max block erase count", "value")
	c.require(maxErase <= merges, "max erase %v exceeds merges %v: wear levelling broken", maxErase, merges)
	wa := c.num("write amplification", "value")
	c.require(wa >= 1, "write amplification %v < 1", wa)
	return c.err
}

func checkAblL2(t *stats.Table) error {
	c := cells{t: t}
	var sizes []float64
	for _, l2 := range c.labels() {
		sizes = append(sizes, c.num(l2, "size (MB)"))
		ipc := c.num(l2, "IPC")
		c.require(ipc > 0, "%s: IPC %v, want positive", l2, ipc)
		hit := c.num(l2, "L2 hit rate")
		c.require(hit > 0, "%s: L2 hit rate %v, want positive", l2, hit)
	}
	for i := 1; i < len(sizes); i++ {
		c.require(sizes[i] > sizes[i-1], "swept sizes %v not strictly ascending", sizes)
	}
	return c.err
}
