package experiments

import (
	"fmt"
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
	// Driver names the experiments-package function that produces the
	// table, Run; the registry-completeness test keeps it in sync with
	// Run and with the actual exported drivers.
	Driver string
	// Claim states the paper's finding in one sentence.
	Claim string
	// Shape states the qualitative property Check asserts about the
	// measured table.
	Shape string
	// ScaleFree marks figures that ignore Options.Scale and
	// Options.Mixes entirely and read only the run's configuration,
	// Options.Cfg.
	ScaleFree bool
	// Run is the driver itself: it regenerates the figure's table
	// under the given options. The table is the figure's only output,
	// so everything Check, zngfig and the docs read is in it.
	Run func(Options) (*stats.Table, error)
	// Check validates Shape against the measured table; nil error
	// means the paper's qualitative shape holds in this reproduction.
	// Tier-1 requires every Check to pass on a one-pair TestOptions
	// run (internal/report's TestExperimentsDocDeterministic).
	Check func(*stats.Table) error
}

// VerdictPass is the verdict of a figure whose shape check passes.
const VerdictPass = "PASS"

// Verdict runs the figure's shape check on its table and says how it
// went, as docs/EXPERIMENTS.md and zngfig print it: PASS, FAIL with the
// check's error, or n/a for a figure without a check.
func (f Figure) Verdict(t *stats.Table) string {
	if f.Check == nil {
		return "n/a (no shape check)"
	}
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
			ID: "table1", Ref: "Sec. V-A, Table I", Title: "System configuration",
			Driver: "TableI", ScaleFree: true,
			Claim: "The evaluated GTX580-class GPU pairs 16 SMs with a 24 MB STT-MRAM L2 and an 800 GB-class Z-NAND backbone (3 us reads, 100 us programs, 100k P/E).",
			Shape: "The transcription carries the Z-NAND geometry/timing, the mesh flash network and the Optane DC PMM timing of Table I.",
			Run:   TableI,
			Check: checkTableI,
		},
		{
			ID: "table2", Ref: "Sec. V-A, Table II", Title: "GPU benchmarks",
			Driver: "TableII",
			Claim:  "The sixteen benchmarks span graph analytics and scientific kernels whose read ratios range from write-heavy (~46%) to almost pure-read (~99%).",
			Shape:  "All sixteen apps generate traces and the measured read ratio of every trace tracks the paper's per-app column within 0.15.",
			Run:    TableII,
			Check:  checkTableII,
		},
		{
			ID: "fig1b", Ref: "Sec. I, Fig. 1b", Title: "HybridGPU component bandwidths",
			Driver: "Fig1b", ScaleFree: true,
			Claim: "Z-NAND arrays can stream far more bandwidth than the DRAM buffer, legacy channels or SSD engine that HybridGPU puts in front of them, leaving an order-of-magnitude gap to GDDR5.",
			Shape: "flash read > flash channel > DRAM buffer > SSD engine, reads out-pace programs, and the GDDR5 gap line exceeds 10x the DRAM buffer.",
			Run:   Fig1b,
			Check: checkFig1b,
		},
		{
			ID: "fig3", Ref: "Sec. II-B, Fig. 3", Title: "Density and power per package",
			Driver: "Fig3", ScaleFree: true,
			Claim: "Z-NAND offers the highest per-package density at the lowest power per GB among GDDR5, DDR4 and LPDDR4.",
			Shape: "The Z-NAND row has the maximum density and the minimum W/GB of the four media.",
			Run:   Fig3,
			Check: checkFig3,
		},
		{
			ID: "fig4c", Ref: "Sec. II-C, Fig. 4c", Title: "Max data access throughput",
			Driver: "Fig4c", ScaleFree: true,
			Claim: "On 128 B accesses GPU DRAM outperforms the host-mediated GPU-SSD path by ~80x and HybridGPU by ~40x.",
			Shape: "GDDR5 > DDR4 > LPDDR4 > ZSSD, HybridGPU beats GPU-SSD, and the GDDR5/GPU-SSD ratio is at least 30x.",
			Run:   Fig4c,
			Check: checkFig4c,
		},
		{
			ID: "fig4d", Ref: "Sec. II-C, Fig. 4d", Title: "Memory-access latency breakdown",
			Driver: "Fig4d", ScaleFree: true,
			Claim: "The SSD engine's firmware alone accounts for about two thirds of HybridGPU's loaded memory latency.",
			Shape: "HybridGPU's total exceeds the conventional GPU's, with the SSD engine the dominant component (>30% of the total).",
			Run:   Fig4d,
			Check: checkFig4d,
		},
		{
			ID: "fig5a", Ref: "Sec. III-A, Fig. 5a", Title: "Direct Z-NAND degradation",
			Driver: "Fig5a",
			Claim:  "Serving GPU memory requests directly from Z-NAND (no buffering) degrades performance by up to ~28x versus GDDR5.",
			Shape:  "Degradation is at least 5x on every co-run pair.",
			Run:    Fig5a,
			Check:  checkFig5a,
		},
		{
			ID: "fig5bcd", Ref: "Sec. III-A, Fig. 5b-d", Title: "Workload locality characterization",
			Driver: "Fig5bcd",
			Claim:  "GPU co-run workloads re-read flash pages ~42x and rewrite them ~65x on average, and reads dominate the access mix.",
			Shape:  "Average read re-access and write redundancy both exceed 1, so register caching and prefetching have locality to harvest.",
			Run:    Fig5bcd,
			Check:  checkFig5bcd,
		},
		{
			ID: "fig8b", Ref: "Sec. IV-C, Fig. 8b", Title: "Asymmetric Z-NAND writes",
			Driver: "Fig8b",
			Claim:  "Writes concentrate on a small subset of planes, leaving most per-plane register caches idle — the motivation for grouping them.",
			Shape:  "Per-plane program counts are visibly non-uniform (some plane group differs from its channel's peak).",
			Run:    Fig8b,
			Check:  checkFig8b,
		},
		{
			ID: "fig10", Ref: "Sec. V-B, Fig. 10", Title: "Normalized IPC, all platforms",
			Driver: "Fig10",
			Claim:  "ZnG outperforms HybridGPU by 1.9x on average (up to 12.6x) and its read and write optimizations are both needed to get there.",
			Shape:  "On the workload average ZnG > HybridGPU > ZnG-base, with every platform normalized to ZnG = 1.",
			Run:    Fig10,
			Check:  checkFig10,
		},
		{
			ID: "fig11", Ref: "Sec. V-B, Fig. 11", Title: "Flash array bandwidth",
			Driver: "Fig11",
			Claim:  "ZnG's optimizations raise delivered flash-array bandwidth well above HybridGPU's channel- and engine-throttled path.",
			Shape:  "Average ZnG array bandwidth exceeds average HybridGPU array bandwidth.",
			Run:    Fig11,
			Check:  checkFig11,
		},
		{
			ID: "fig12", Ref: "Sec. V-C, Fig. 12", Title: "Read-path effectiveness",
			Driver: "Fig12",
			Claim:  "The dynamic prefetcher fills the STT-MRAM L2 from already-sensed flash pages, raising L2 hits and cutting demand fills.",
			Shape:  "ZnG-rdopt prefetches a non-zero volume and its mean L2 hit rate is at least ZnG-base's.",
			Run:    Fig12,
			Check:  checkFig12,
		},
		{
			ID: "fig13", Ref: "Sec. V-D, Fig. 13", Title: "Prefetch threshold sensitivity",
			Driver: "Fig13Sweep",
			Claim:  "Performance is stable across a wide waste-threshold region; the paper lands on high=0.3, low=0.05.",
			Shape:  "Every (high, low) cell simulates to a positive IPC — no threshold choice collapses the read path.",
			Run:    Fig13Sweep,
			Check:  checkFig13,
		},
		{
			ID: "abl-writenet", Ref: "ablation (Sec. IV-C)", Title: "Register interconnect ablation",
			Driver: "AblationWriteNet",
			Claim:  "The network-in-flash (NiF) approaches fully-connected (FCnet) write absorption at mesh cost, where a plain switched bus (SWnet) serializes.",
			Shape:  "All three interconnects sustain positive IPC on the write-heavy pairs and NiF's register migrations are counted.",
			Run:    AblationWriteNet,
			Check:  checkAblWriteNet,
		},
		{
			ID: "abl-consolidation", Ref: "ablation (beyond Sec. V-A's 2-app co-runs)", Title: "Consolidation sweep",
			Driver: "AblationConsolidation",
			Claim:  "The paper evaluates 2-app co-runs only; stacking more tenants should favor ZnG, whose flash arrays serve requests directly, over HybridGPU, whose SSD engine serializes every miss.",
			Shape:  "Both platforms sustain positive IPC at every co-run degree 1-4, and ZnG retains at least as much of its solo IPC as HybridGPU does at the highest degree.",
			Run:    AblationConsolidation,
			Check:  checkAblConsolidation,
		},
		{
			ID: "abl-gc", Ref: "ablation (Sec. III-B/IV-A)", Title: "Split-FTL garbage collection",
			Driver: "AblationGC", ScaleFree: true,
			Claim: "The split FTL's helper-thread merges reclaim log blocks without stalling the write path, and wear levelling bounds per-block erase counts.",
			Shape: "Merges occur under rewrite pressure, max erase count stays within the merge count, and write amplification is at least 1.",
			Run:   AblationGC,
			Check: checkAblGC,
		},
		{
			ID: "abl-l2", Ref: "ablation (Sec. IV-B)", Title: "L2 capacity sweep",
			Driver: "AblationL2",
			Claim:  "Replacing the 6 MB SRAM L2 with the 24 MB STT-MRAM array is what gives the prefetcher room to work; capacity beyond that shows diminishing returns.",
			Shape:  "Swept capacities ascend and every configuration sustains a positive IPC and L2 hit rate.",
			Run:    AblationL2,
			Check:  checkAblL2,
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
// verdict, and tier-1 requires it to pass.

// cellStr returns the formatted cell at (r, c), or "" when row r omitted
// its trailing cells — checks must degrade to a FAIL verdict on a
// short row, never panic mid docs generation.
func cellStr(t *stats.Table, r, c int) string {
	row := t.Row(r)
	if c >= len(row) {
		return ""
	}
	return row[c]
}

// cellFloat parses the formatted cell at (r, c).
func cellFloat(t *stats.Table, r, c int) (float64, error) {
	s := cellStr(t, r, c)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("cell (%d,%d) %q is not numeric", r, c, s)
	}
	return v, nil
}

// colByName returns the index of the named header column.
func colByName(t *stats.Table, name string) (int, error) {
	for i, h := range t.Header() {
		if h == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no column %q", name)
}

// rowByName returns the index of the data row whose first cell is name.
func rowByName(t *stats.Table, name string) (int, error) {
	for r := 0; r < t.Rows(); r++ {
		if cellStr(t, r, 0) == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("no row %q", name)
}

// col1ByRowName builds a name -> column-1 value map for two-column
// tables like Fig. 1b and Fig. 4c.
func col1ByRowName(t *stats.Table) (map[string]float64, error) {
	vals := make(map[string]float64, t.Rows())
	for r := 0; r < t.Rows(); r++ {
		v, err := cellFloat(t, r, 1)
		if err != nil {
			return nil, err
		}
		vals[cellStr(t, r, 0)] = v
	}
	return vals, nil
}

// rowVal looks up a named row's value, erroring on a missing name so
// a renamed driver row can never make a comparison vacuously pass.
func rowVal(vals map[string]float64, name string) (float64, error) {
	v, ok := vals[name]
	if !ok {
		return 0, fmt.Errorf("no row %q", name)
	}
	return v, nil
}

func requireOrder(vals map[string]float64, order ...string) error {
	for i := 1; i < len(order); i++ {
		hi, err := rowVal(vals, order[i-1])
		if err != nil {
			return err
		}
		lo, err := rowVal(vals, order[i])
		if err != nil {
			return err
		}
		if !(hi > lo) {
			return fmt.Errorf("%s (%v) must exceed %s (%v)", order[i-1], hi, order[i], lo)
		}
	}
	return nil
}

func checkTableI(t *stats.Table) error {
	if t.Rows() < 15 {
		return fmt.Errorf("only %d configuration rows", t.Rows())
	}
	for _, want := range []string{"Z-NAND", "mesh", "Optane DC PMM"} {
		found := false
		for r := 0; r < t.Rows(); r++ {
			if strings.Contains(cellStr(t, r, 0), want) || strings.Contains(cellStr(t, r, 2), want) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("missing %q", want)
		}
	}
	return nil
}

func checkTableII(t *stats.Table) error {
	if t.Rows() != 16 {
		return fmt.Errorf("rows = %d, want the 16 Table II apps", t.Rows())
	}
	paperCol, err := colByName(t, "read ratio (paper)")
	if err != nil {
		return err
	}
	measCol, err := colByName(t, "read ratio (measured)")
	if err != nil {
		return err
	}
	for r := 0; r < t.Rows(); r++ {
		paper, err := cellFloat(t, r, paperCol)
		if err != nil {
			return err
		}
		meas, err := cellFloat(t, r, measCol)
		if err != nil {
			return err
		}
		if d := meas - paper; d > 0.15 || d < -0.15 {
			return fmt.Errorf("%s: measured read ratio %.3f vs paper %.3f (|delta| > 0.15)",
				cellStr(t, r, 0), meas, paper)
		}
	}
	return nil
}

func checkFig1b(t *stats.Table) error {
	vals, err := col1ByRowName(t)
	if err != nil {
		return err
	}
	if err := requireOrder(vals, "flash read", "flash channel", "DRAM buffer", "SSD engine"); err != nil {
		return err
	}
	if err := requireOrder(vals, "flash read", "flash write"); err != nil {
		return fmt.Errorf("array reads must out-pace programs: %w", err)
	}
	gap, err := rowVal(vals, "GDDR5 (gap line)")
	if err != nil {
		return err
	}
	if !(gap > 10*vals["DRAM buffer"]) {
		return fmt.Errorf("GDDR5 gap (%v) must exceed 10x the DRAM buffer (%v)",
			gap, vals["DRAM buffer"])
	}
	return nil
}

func checkFig3(t *stats.Table) error {
	zn, err := rowByName(t, "Z-NAND")
	if err != nil {
		return err
	}
	znDens, err := cellFloat(t, zn, 1)
	if err != nil {
		return err
	}
	znPow, err := cellFloat(t, zn, 2)
	if err != nil {
		return err
	}
	for r := 0; r < t.Rows(); r++ {
		if r == zn {
			continue
		}
		dens, err := cellFloat(t, r, 1)
		if err != nil {
			return err
		}
		pow, err := cellFloat(t, r, 2)
		if err != nil {
			return err
		}
		if dens >= znDens {
			return fmt.Errorf("%s density %v >= Z-NAND %v", cellStr(t, r, 0), dens, znDens)
		}
		if pow <= znPow {
			return fmt.Errorf("%s power %v <= Z-NAND %v", cellStr(t, r, 0), pow, znPow)
		}
	}
	return nil
}

func checkFig4c(t *stats.Table) error {
	vals, err := col1ByRowName(t)
	if err != nil {
		return err
	}
	if err := requireOrder(vals, "GDDR5", "DDR4", "LPDDR4", "ZSSD"); err != nil {
		return err
	}
	if err := requireOrder(vals, "HybridGPU", "GPU-SSD"); err != nil {
		return fmt.Errorf("HybridGPU must beat host-mediated GPU-SSD: %w", err)
	}
	if r := vals["GDDR5"] / vals["GPU-SSD"]; r < 30 {
		return fmt.Errorf("GDDR5/GPU-SSD ratio %.0fx, want >= 30x (paper ~80x)", r)
	}
	return nil
}

func checkFig4d(t *stats.Table) error {
	total, err := rowByName(t, "TOTAL")
	if err != nil {
		return err
	}
	gpuTot, err := cellFloat(t, total, 1)
	if err != nil {
		return err
	}
	hybTot, err := cellFloat(t, total, 2)
	if err != nil {
		return err
	}
	if hybTot <= gpuTot {
		return fmt.Errorf("HybridGPU total %v must exceed GPU total %v", hybTot, gpuTot)
	}
	eng, err := rowByName(t, "SSD engine")
	if err != nil {
		return err
	}
	engLat, err := cellFloat(t, eng, 2)
	if err != nil {
		return err
	}
	if frac := engLat / hybTot; frac < 0.3 {
		return fmt.Errorf("SSD engine fraction %.2f, want dominant (paper 0.67)", frac)
	}
	return nil
}

func checkFig5a(t *stats.Table) error {
	col, err := colByName(t, "degradation (x)")
	if err != nil {
		return err
	}
	for r := 0; r < t.Rows(); r++ {
		d, err := cellFloat(t, r, col)
		if err != nil {
			return err
		}
		if d < 5 {
			return fmt.Errorf("%s: degradation %.1fx, want >= 5x (paper up to 28x)", cellStr(t, r, 0), d)
		}
	}
	return nil
}

func checkFig5bcd(t *stats.Table) error {
	avg, err := rowByName(t, "AVERAGE")
	if err != nil {
		return err
	}
	reuse, err := cellFloat(t, avg, 1)
	if err != nil {
		return err
	}
	redund, err := cellFloat(t, avg, 2)
	if err != nil {
		return err
	}
	if reuse <= 1 {
		return fmt.Errorf("average read re-access %.2f, want > 1", reuse)
	}
	if redund <= 1 {
		return fmt.Errorf("average write redundancy %.2f, want > 1", redund)
	}
	return nil
}

func checkFig8b(t *stats.Table) error {
	minCol, err := colByName(t, "min")
	if err != nil {
		return err
	}
	maxCol, err := colByName(t, "max")
	if err != nil {
		return err
	}
	totCol, err := colByName(t, "total")
	if err != nil {
		return err
	}
	anyWrites, asymmetric := false, false
	var firstTotal float64
	for r := 0; r < t.Rows(); r++ {
		lo, err := cellFloat(t, r, minCol)
		if err != nil {
			return err
		}
		hi, err := cellFloat(t, r, maxCol)
		if err != nil {
			return err
		}
		tot, err := cellFloat(t, r, totCol)
		if err != nil {
			return err
		}
		if r == 0 {
			firstTotal = tot
		}
		if hi > 0 {
			anyWrites = true
		}
		// Skew within a channel or across channels both count.
		if lo != hi || tot != firstTotal {
			asymmetric = true
		}
	}
	if !anyWrites {
		return fmt.Errorf("no programs recorded")
	}
	if !asymmetric {
		return fmt.Errorf("write distribution perfectly uniform; Fig. 8b asymmetry absent")
	}
	return nil
}

func checkFig10(t *stats.Table) error {
	avg, err := rowByName(t, "AVERAGE")
	if err != nil {
		return err
	}
	get := func(name string) (float64, error) {
		c, err := colByName(t, name)
		if err != nil {
			return 0, err
		}
		return cellFloat(t, avg, c)
	}
	zng, err := get("ZnG")
	if err != nil {
		return err
	}
	hyb, err := get("HybridGPU")
	if err != nil {
		return err
	}
	base, err := get("ZnG-base")
	if err != nil {
		return err
	}
	if zng != 1 {
		return fmt.Errorf("normalization broken: ZnG average %v != 1", zng)
	}
	if !(hyb < zng) {
		return fmt.Errorf("ZnG must beat HybridGPU (%v) on average", hyb)
	}
	if !(base < hyb) {
		return fmt.Errorf("ZnG-base (%v) must trail HybridGPU (%v) on average", base, hyb)
	}
	return nil
}

func checkFig11(t *stats.Table) error {
	avg, err := rowByName(t, "AVERAGE")
	if err != nil {
		return err
	}
	hybCol, err := colByName(t, "HybridGPU")
	if err != nil {
		return err
	}
	zngCol, err := colByName(t, "ZnG")
	if err != nil {
		return err
	}
	hyb, err := cellFloat(t, avg, hybCol)
	if err != nil {
		return err
	}
	zng, err := cellFloat(t, avg, zngCol)
	if err != nil {
		return err
	}
	if zng <= hyb {
		return fmt.Errorf("ZnG average bandwidth %.2f must exceed HybridGPU's %.2f", zng, hyb)
	}
	return nil
}

func checkFig12(t *stats.Table) error {
	pfCol, err := colByName(t, "prefetch KB (rdopt)")
	if err != nil {
		return err
	}
	baseCol, err := colByName(t, "L2 hit (base)")
	if err != nil {
		return err
	}
	rdCol, err := colByName(t, "L2 hit (rdopt)")
	if err != nil {
		return err
	}
	var pfTotal, baseSum, rdSum float64
	for r := 0; r < t.Rows(); r++ {
		pf, err := cellFloat(t, r, pfCol)
		if err != nil {
			return err
		}
		pfTotal += pf
		b, err := cellFloat(t, r, baseCol)
		if err != nil {
			return err
		}
		baseSum += b
		rd, err := cellFloat(t, r, rdCol)
		if err != nil {
			return err
		}
		rdSum += rd
	}
	if pfTotal <= 0 {
		return fmt.Errorf("rdopt prefetched nothing")
	}
	if rdSum < baseSum {
		return fmt.Errorf("mean rdopt L2 hit rate %.3f below base %.3f",
			rdSum/float64(t.Rows()), baseSum/float64(t.Rows()))
	}
	return nil
}

func checkFig13(t *stats.Table) error {
	for r := 0; r < t.Rows(); r++ {
		for c := 1; c < t.Cols(); c++ {
			v, err := cellFloat(t, r, c)
			if err != nil {
				return err
			}
			if v <= 0 {
				return fmt.Errorf("threshold cell (high=%s, low#%d) collapsed to IPC %v",
					cellStr(t, r, 0), c, v)
			}
		}
	}
	return nil
}

func checkAblWriteNet(t *stats.Table) error {
	if t.Rows() < 2 {
		return fmt.Errorf("rows = %d, want the two write-heavy pairs", t.Rows())
	}
	for r := 0; r < t.Rows(); r++ {
		for _, net := range []string{"SWnet", "FCnet", "NiF"} {
			c, err := colByName(t, net)
			if err != nil {
				return err
			}
			v, err := cellFloat(t, r, c)
			if err != nil {
				return err
			}
			if v <= 0 {
				return fmt.Errorf("%s: %s IPC %v, want positive", cellStr(t, r, 0), net, v)
			}
		}
	}
	return nil
}

func checkAblConsolidation(t *stats.Table) error {
	if t.Rows() != workload.ConsolidationDegrees {
		return fmt.Errorf("rows = %d, want co-run degrees 1-%d", t.Rows(), workload.ConsolidationDegrees)
	}
	hybCol, err := colByName(t, "HybridGPU")
	if err != nil {
		return err
	}
	zngCol, err := colByName(t, "ZnG")
	if err != nil {
		return err
	}
	hybNormCol, err := colByName(t, "HybridGPU (vs solo)")
	if err != nil {
		return err
	}
	zngNormCol, err := colByName(t, "ZnG (vs solo)")
	if err != nil {
		return err
	}
	for r := 0; r < t.Rows(); r++ {
		for _, c := range []int{hybCol, zngCol} {
			v, err := cellFloat(t, r, c)
			if err != nil {
				return err
			}
			if v <= 0 {
				return fmt.Errorf("%s: IPC %v, want positive", cellStr(t, r, 0), v)
			}
		}
	}
	last := t.Rows() - 1
	hybNorm, err := cellFloat(t, last, hybNormCol)
	if err != nil {
		return err
	}
	zngNorm, err := cellFloat(t, last, zngNormCol)
	if err != nil {
		return err
	}
	if zngNorm < hybNorm {
		return fmt.Errorf("at degree %d ZnG retains %.3f of solo IPC vs HybridGPU's %.3f: ZnG must degrade at least as gracefully",
			t.Rows(), zngNorm, hybNorm)
	}
	return nil
}

func checkAblGC(t *stats.Table) error {
	get := func(name string) (float64, error) {
		r, err := rowByName(t, name)
		if err != nil {
			return 0, err
		}
		return cellFloat(t, r, 1)
	}
	merges, err := get("log merges")
	if err != nil {
		return err
	}
	if merges == 0 {
		return fmt.Errorf("no merges under rewrite pressure")
	}
	maxErase, err := get("max block erase count")
	if err != nil {
		return err
	}
	if maxErase > merges {
		return fmt.Errorf("max erase %v exceeds merges %v: wear levelling broken", maxErase, merges)
	}
	wa, err := get("write amplification")
	if err != nil {
		return err
	}
	if wa < 1 {
		return fmt.Errorf("write amplification %v < 1", wa)
	}
	return nil
}

func checkAblL2(t *stats.Table) error {
	sizeCol, err := colByName(t, "size (MB)")
	if err != nil {
		return err
	}
	ipcCol, err := colByName(t, "IPC")
	if err != nil {
		return err
	}
	hitCol, err := colByName(t, "L2 hit rate")
	if err != nil {
		return err
	}
	var sizes []float64
	for r := 0; r < t.Rows(); r++ {
		size, err := cellFloat(t, r, sizeCol)
		if err != nil {
			return err
		}
		sizes = append(sizes, size)
		ipc, err := cellFloat(t, r, ipcCol)
		if err != nil {
			return err
		}
		if ipc <= 0 {
			return fmt.Errorf("%s: IPC %v, want positive", cellStr(t, r, 0), ipc)
		}
		hit, err := cellFloat(t, r, hitCol)
		if err != nil {
			return err
		}
		if hit <= 0 {
			return fmt.Errorf("%s: L2 hit rate %v, want positive", cellStr(t, r, 0), hit)
		}
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			return fmt.Errorf("swept sizes %v not strictly ascending", sizes)
		}
	}
	return nil
}
