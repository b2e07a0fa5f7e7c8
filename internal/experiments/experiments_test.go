package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/stats"
)

func TestTableI(t *testing.T) {
	tab := TableI(config.Default())
	s := tab.String()
	for _, want := range []string{"Z-NAND", "tR (us)", "P/E cycles", "mesh", "Optane"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTableII(t *testing.T) {
	tab := TableII(0.2)
	if tab.Rows() != 16 {
		t.Fatalf("Table II rows = %d, want 16", tab.Rows())
	}
	if !strings.Contains(tab.String(), "betw") {
		t.Error("missing betw row")
	}
}

func TestFig3StaticShape(t *testing.T) {
	tab := Fig3(config.Default())
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Z-NAND row: highest density, lowest power.
	if tab.Cell(3, 1) != "64" {
		t.Errorf("Z-NAND density cell = %q, want 64", tab.Cell(3, 1))
	}
}

func TestFig1bShape(t *testing.T) {
	tab := Fig1b(config.Default())
	get := func(row int) string { return tab.Cell(row, 1) }
	// Ordering claims of Fig. 1b: flash read >> flash channel >
	// DRAM buffer > SSD engine; GDDR5 gap line above everything but
	// the raw array read.
	vals := map[string]float64{}
	for i := 0; i < tab.Rows(); i++ {
		var f float64
		if _, err := sscan(tab.Cell(i, 1), &f); err != nil {
			t.Fatalf("bad cell %q", get(i))
		}
		vals[tab.Cell(i, 0)] = f
	}
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
	tab := Fig4c(config.Default())
	vals := map[string]float64{}
	for i := 0; i < tab.Rows(); i++ {
		var f float64
		if _, err := sscan(tab.Cell(i, 1), &f); err != nil {
			t.Fatalf("bad cell")
		}
		vals[tab.Cell(i, 0)] = f
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

func TestFig4dEngineDominates(t *testing.T) {
	_, gpu, hyb := Fig4d(config.Default())
	if hyb.Total() <= gpu.Total() {
		t.Fatalf("HybridGPU total latency (%v) must exceed GPU (%v)", hyb.Total(), gpu.Total())
	}
	// Paper: the SSD engine accounts for ~67% of HybridGPU's latency.
	frac := hyb.Get("SSD engine") / hyb.Total()
	if frac < 0.3 {
		t.Errorf("SSD engine fraction = %.2f, want the dominant component (paper 0.67)", frac)
	}
	for _, c := range hyb.Components() {
		if hyb.Get(c) < 0 {
			t.Errorf("negative latency for %s", c)
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
	_, deg, err := Fig5a(o)
	if err != nil {
		t.Fatal(err)
	}
	for pair, d := range deg {
		if d < 5 {
			t.Errorf("%s: degradation %.1fx, want large (paper up to 28x+)", pair, d)
		}
	}
}

func TestFig8bHeatmapAsymmetry(t *testing.T) {
	o := TestOptions()
	_, heat, err := Fig8b(o)
	if err != nil {
		t.Fatal(err)
	}
	var min, max uint64
	min = ^uint64(0)
	for _, row := range heat {
		for _, v := range row {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if max == 0 {
		t.Fatal("no writes recorded")
	}
	if min == max {
		t.Error("write distribution perfectly uniform; Fig. 8b asymmetry absent")
	}
}

func TestFig10SmallMatrix(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:1]
	tab, res, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 { // 1 pair + average
		t.Fatalf("rows = %d", tab.Rows())
	}
	pair := o.Mixes[0].Name
	zng := res[platform.ZnG][pair].IPC
	if res[platform.HybridGPU][pair].IPC >= zng {
		t.Error("ZnG must beat HybridGPU")
	}
	if res[platform.ZnGBase][pair].IPC >= res[platform.HybridGPU][pair].IPC {
		t.Error("ZnG-base must trail HybridGPU")
	}
}

func TestFig11ZnGWins(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:1]
	_, res, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	pair := o.Mixes[0].Name
	if res[platform.ZnG][pair].FlashArrayGBps() <= res[platform.HybridGPU][pair].FlashArrayGBps() {
		t.Error("ZnG flash bandwidth must exceed HybridGPU's")
	}
}

func TestAblationConsolidation(t *testing.T) {
	o := TestOptions()
	tab, ipc, err := AblationConsolidation(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d, want degrees 1-4", tab.Rows())
	}
	for _, k := range []platform.Kind{platform.HybridGPU, platform.ZnG} {
		if len(ipc[k]) != 4 {
			t.Fatalf("%v: %d degrees measured", k, len(ipc[k]))
		}
		for d, v := range ipc[k] {
			if v <= 0 {
				t.Errorf("%v degree %d: IPC %v", k, d+1, v)
			}
		}
	}
	// The ablation's claim: ZnG retains at least as much of its solo
	// IPC under 4-way consolidation as HybridGPU does.
	zng := ipc[platform.ZnG][3] / ipc[platform.ZnG][0]
	hyb := ipc[platform.HybridGPU][3] / ipc[platform.HybridGPU][0]
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
	tab, st := AblationGC()
	if st.Merges == 0 {
		t.Fatal("GC ablation produced no merges")
	}
	if st.MaxErase > int(st.Merges) {
		t.Errorf("max erase %d exceeds merges %d: wear leveling broken", st.MaxErase, st.Merges)
	}
	if !strings.Contains(tab.String(), "write amplification") {
		t.Error("missing WA row")
	}
}

// sscan is a tiny strconv wrapper tolerant of the table's trimmed
// float formatting.
func sscan(s string, f *float64) (int, error) {
	return fmtSscan(s, f)
}

func fmtSscan(s string, f *float64) (int, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	*f = v
	return 1, nil
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
	if err := checkAblL2(tab); err != nil {
		t.Errorf("shape check: %v", err)
	}
	flat := stats.NewTable("", "L2 config", "size (MB)", "IPC", "L2 hit rate")
	flat.AddRow("1x SRAM sets", 0, 0.5, 0.25)
	flat.AddRow("2x SRAM sets", 0, 0.5, 0.25)
	if err := checkAblL2(flat); err == nil {
		t.Error("shape check passed two rows of the same size")
	}
}
