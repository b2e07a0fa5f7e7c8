package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/stats"
)

func TestTableI(t *testing.T) {
	tab, err := TableI(Options{Cfg: config.Default()})
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"Z-NAND", "tR (us)", "P/E cycles", "mesh", "Optane"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTableII(t *testing.T) {
	tab, err := TableII(Options{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 16 {
		t.Fatalf("Table II rows = %d, want 16", tab.Rows())
	}
	if !strings.Contains(tab.String(), "betw") {
		t.Error("missing betw row")
	}
}

func TestFig3StaticShape(t *testing.T) {
	tab, err := Fig3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Z-NAND row: highest density, lowest power.
	if tab.Cell(3, 1) != "64" {
		t.Errorf("Z-NAND density cell = %q, want 64", tab.Cell(3, 1))
	}
}

// TestZNANDDensityConstants: Fig. 3's Z-NAND package holds 64x a GDDR5
// package, at the lowest power per GB of the four media.
func TestZNANDDensityConstants(t *testing.T) {
	gddr5, znand := fig3Media[0], fig3Media[len(fig3Media)-1]
	if gddr5.name != "GDDR5" || znand.name != "Z-NAND" {
		t.Fatalf("Fig. 3 media run %s … %s, want GDDR5 … Z-NAND", gddr5.name, znand.name)
	}
	if znand.densityGB != 64*gddr5.densityGB {
		t.Error("Z-NAND density must be 64x GDDR5 (Fig. 3a)")
	}
	for _, m := range fig3Media[:len(fig3Media)-1] {
		if znand.wPerGB >= m.wPerGB {
			t.Errorf("Z-NAND must be the most power-efficient medium (Fig. 3b), but %s draws %v W/GB", m.name, m.wPerGB)
		}
	}
}

func TestFig1bShape(t *testing.T) {
	tab, err := Fig1b(Options{Cfg: config.Default()})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := col1ByRowName(tab)
	if err != nil {
		t.Fatal(err)
	}
	// Ordering claims of Fig. 1b: flash read >> flash channel >
	// DRAM buffer > SSD engine; GDDR5 gap line above everything but
	// the raw array read.
	if !(vals["flash read"] > vals["flash channel"]) {
		t.Errorf("flash read (%v) must exceed channel (%v)", vals["flash read"], vals["flash channel"])
	}
	if !(vals["flash channel"] > vals["DRAM buffer"]) {
		t.Errorf("channel (%v) must exceed DRAM buffer (%v)", vals["flash channel"], vals["DRAM buffer"])
	}
	if !(vals["DRAM buffer"] > vals["SSD engine"]) {
		t.Errorf("DRAM buffer (%v) must exceed SSD engine (%v)", vals["DRAM buffer"], vals["SSD engine"])
	}
	if !(vals["flash read"] > vals["flash write"]) {
		t.Error("array reads must out-pace programs")
	}
	if !(vals["GDDR5 (gap line)"] > vals["DRAM buffer"]*10) {
		t.Error("the performance gap must be an order of magnitude")
	}
}

func TestFig4cShape(t *testing.T) {
	tab, err := Fig4c(Options{Cfg: config.Default()})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := col1ByRowName(tab)
	if err != nil {
		t.Fatal(err)
	}
	// GDDR5 > DDR4 > LPDDR4 > ZSSD > HybridGPU > GPU-SSD.
	order := []string{"GDDR5", "DDR4", "LPDDR4", "ZSSD"}
	for i := 1; i < len(order); i++ {
		if vals[order[i-1]] <= vals[order[i]] {
			t.Errorf("%s (%v) must exceed %s (%v)", order[i-1], vals[order[i-1]], order[i], vals[order[i]])
		}
	}
	if vals["GPU-SSD"] >= vals["HybridGPU"] {
		t.Errorf("HybridGPU (%v) must beat the host-mediated GPU-SSD (%v)", vals["HybridGPU"], vals["GPU-SSD"])
	}
	// Paper: GPU DRAM outperforms GPU-SSD by ~80x and HybridGPU by ~40x.
	if r := vals["GDDR5"] / vals["GPU-SSD"]; r < 30 {
		t.Errorf("GDDR5/GPU-SSD ratio = %.0f, want large (paper ~80-150x)", r)
	}
}

// TestFig4dEngineDominates: checkFig4d asserts the totals and the SSD
// engine's share; this test adds that no component of either path
// reads a negative latency.
func TestFig4dEngineDominates(t *testing.T) {
	tab, err := Fig4d(Options{Cfg: config.Default()})
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows() {
		for c := 1; c < tab.Cols(); c++ {
			v, err := cellFloat(tab, r, c)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0 {
				t.Errorf("%s: negative %s latency %v", cellStr(tab, r, 0), tab.Header()[c], v)
			}
		}
	}
}

func TestFig5bcdAverages(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:2]
	tab, err := Fig5bcd(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 3 { // 2 pairs + average
		t.Fatalf("rows = %d", tab.Rows())
	}
}

func TestFig5aDegradationLarge(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:1]
	tab, err := Fig5a(o)
	if err != nil {
		t.Fatal(err)
	}
	col, err := colByName(tab, "degradation (x)")
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows() {
		d, err := cellFloat(tab, r, col)
		if err != nil {
			t.Fatal(err)
		}
		if d < 5 {
			t.Errorf("%s: degradation %.1fx, want large (paper up to 28x+)", cellStr(tab, r, 0), d)
		}
	}
}

// TestFig8bHeatmapAsymmetry: the lowest per-channel min and the
// highest per-channel max bound the whole plane-group heatmap, so the
// table shows whether any two plane groups differ.
func TestFig8bHeatmapAsymmetry(t *testing.T) {
	tab, err := Fig8b(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	minCol, err := colByName(tab, "min")
	if err != nil {
		t.Fatal(err)
	}
	maxCol, err := colByName(tab, "max")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := range tab.Rows() {
		v, err := cellFloat(tab, r, minCol)
		if err != nil {
			t.Fatal(err)
		}
		lo = min(lo, v)
		if v, err = cellFloat(tab, r, maxCol); err != nil {
			t.Fatal(err)
		}
		hi = max(hi, v)
	}
	if hi <= 0 {
		t.Fatal("no writes recorded")
	}
	if lo == hi {
		t.Error("write distribution perfectly uniform; Fig. 8b asymmetry absent")
	}
}

func TestFig10SmallMatrix(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:1]
	tab, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 { // 1 pair + average
		t.Fatalf("rows = %d", tab.Rows())
	}
}

func TestFig11ZnGWins(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:1]
	tab, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := rowByName(tab, o.Mixes[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	bw := map[string]float64{}
	for _, k := range []string{"HybridGPU", "ZnG"} {
		c, err := colByName(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		if bw[k], err = cellFloat(tab, pair, c); err != nil {
			t.Fatal(err)
		}
	}
	if bw["ZnG"] <= bw["HybridGPU"] {
		t.Error("ZnG flash bandwidth must exceed HybridGPU's")
	}
}

func TestAblationConsolidation(t *testing.T) {
	tab, err := AblationConsolidation(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d, want degrees 1-4", tab.Rows())
	}
	ipc := map[string][]float64{}
	for _, k := range []string{"HybridGPU", "ZnG"} {
		c, err := colByName(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		for d := range tab.Rows() {
			v, err := cellFloat(tab, d, c)
			if err != nil {
				t.Fatal(err)
			}
			if v <= 0 {
				t.Errorf("%s degree %d: IPC %v", k, d+1, v)
			}
			ipc[k] = append(ipc[k], v)
		}
	}
	// The ablation's claim: ZnG retains at least as much of its solo
	// IPC under 4-way consolidation as HybridGPU does.
	zng := ipc["ZnG"][3] / ipc["ZnG"][0]
	hyb := ipc["HybridGPU"][3] / ipc["HybridGPU"][0]
	if zng < hyb {
		t.Errorf("ZnG retained %.3f of solo IPC vs HybridGPU %.3f; want ZnG to degrade at least as gracefully", zng, hyb)
	}
	if err := checkAblConsolidation(tab); err != nil {
		t.Errorf("shape check: %v", err)
	}
}

// TestMixAliasesShareSimulations pins the memo's content keying:
// consol-2 and the paper pair bfs1-gaus have different names but the
// same canonical ID, so one grid naming both must simulate once — and
// each cell still comes back labeled with the name it was asked under.
func TestMixAliasesShareSimulations(t *testing.T) {
	o := TestOptions()
	o.Scale = 0.023
	cells, err := runGrid(o, campaign.Spec{Platforms: kindNames(platform.ZnG), Scenarios: []string{"bfs1-gaus", "consol-2"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Runner.(*Memo).Stats(); st.Sims != 1 {
		t.Errorf("aliasing scenarios performed %d simulations, want 1", st.Sims)
	}
	r1, r2 := cells[0].Result, cells[1].Result
	if r1.IPC != r2.IPC || r1.Cycles != r2.Cycles {
		t.Errorf("aliased results differ: %+v vs %+v", r1, r2)
	}
	if r1.Workload != "bfs1-gaus" || r2.Workload != "consol-2" {
		t.Errorf("labels not preserved: %q / %q", r1.Workload, r2.Workload)
	}
}

func TestAblationGC(t *testing.T) {
	tab, err := AblationGC(Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := col1ByRowName(tab)
	if err != nil {
		t.Fatal(err)
	}
	merges, maxErase := vals["log merges"], vals["max block erase count"]
	if merges == 0 {
		t.Fatal("GC ablation produced no merges")
	}
	if maxErase > merges {
		t.Errorf("max erase %v exceeds merges %v: wear leveling broken", maxErase, merges)
	}
	if !strings.Contains(tab.String(), "write amplification") {
		t.Error("missing WA row")
	}
}

// TestAblationL2Sizes: the docs regime's L2s print as 0.75 to 6 MB
// rather than rounded down to whole megabytes, and the shape check
// refuses sizes that do not strictly ascend, such as two capacities
// that round down to the same integer.
func TestAblationL2Sizes(t *testing.T) {
	tab, err := AblationL2(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	col, err := colByName(tab, "size (MB)")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for r := range tab.Rows() {
		got = append(got, cellStr(tab, r, col))
	}
	if want := []string{"0.75", "1.5", "3", "6"}; !slices.Equal(got, want) {
		t.Errorf("sizes = %v MB, want %v", got, want)
	}
	flat := stats.NewTable("", "L2 config", "size (MB)", "IPC", "L2 hit rate")
	flat.AddRow("1x SRAM sets", 0, 0.5, 0.25)
	flat.AddRow("2x SRAM sets", 0, 0.5, 0.25)
	if err := checkAblL2(flat); err == nil {
		t.Error("shape check passed two rows of the same size")
	}
}
