package experiments

import (
	"math"
	"reflect"
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
	c := cells{t: tab}
	if got := c.str("Z-NAND", "density (GB)"); got != "64" || c.err != nil {
		t.Errorf("Z-NAND density cell = %q (%v), want 64", got, c.err)
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

// TestFig1bShape: Fig. 1b's ordering and its order-of-magnitude gap
// hold under the Table I configuration, not only in the docs regime
// tier-1 renders.
func TestFig1bShape(t *testing.T) {
	tab, err := Fig1b(Options{Cfg: config.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFig1b(tab); err != nil {
		t.Error(err)
	}
}

// TestFig4cShape: GDDR5 > DDR4 > LPDDR4 > ZSSD, HybridGPU beats the
// host-mediated GPU-SSD path, and GDDR5 out-runs GPU-SSD by at least
// 30x (paper ~80x) under the Table I configuration.
func TestFig4cShape(t *testing.T) {
	tab, err := Fig4c(Options{Cfg: config.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFig4c(tab); err != nil {
		t.Error(err)
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
	c := cells{t: tab}
	for _, comp := range c.labels() {
		for _, path := range tab.Header()[1:] {
			v := c.num(comp, path)
			c.require(v >= 0, "%s: negative %s latency %v", comp, path, v)
		}
	}
	if c.err != nil {
		t.Error(c.err)
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
	if tab.Rows() != 1 {
		t.Fatalf("rows = %d, want the one pair", tab.Rows())
	}
	if err := checkFig5a(tab); err != nil {
		t.Error(err)
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
	c := cells{t: tab}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ch := range c.labels() {
		lo, hi = min(lo, c.num(ch, "min")), max(hi, c.num(ch, "max"))
	}
	c.require(hi > 0, "no writes recorded")
	c.require(lo != hi, "write distribution perfectly uniform; Fig. 8b asymmetry absent")
	if c.err != nil {
		t.Error(c.err)
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
	c := cells{t: tab}
	pair := o.Mixes[0].Name
	hyb, zng := c.num(pair, "HybridGPU"), c.num(pair, "ZnG")
	c.require(zng > hyb, "ZnG flash bandwidth %v must exceed HybridGPU's %v", zng, hyb)
	if c.err != nil {
		t.Error(c.err)
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
	// The check reads the "(vs solo)" columns; the IPC columns must
	// tell the same story: ZnG retains at least as much of its solo
	// IPC under 4-way consolidation as HybridGPU does.
	c := cells{t: tab}
	solo, top := "consol-1", "consol-4"
	zng := c.num(top, "ZnG") / c.num(solo, "ZnG")
	hyb := c.num(top, "HybridGPU") / c.num(solo, "HybridGPU")
	c.require(zng >= hyb, "ZnG retained %.3f of solo IPC vs HybridGPU %.3f; want ZnG to degrade at least as gracefully", zng, hyb)
	if c.err != nil {
		t.Error(c.err)
	}
	if err := checkAblConsolidation(tab); err != nil {
		t.Errorf("shape check: %v", err)
	}
}

// TestMixAliasesShareSimulations pins the runner's content keying:
// consol-2 and the paper pair bfs1-gaus have different names but the
// same canonical ID, so one grid naming both must simulate once and
// answer both cells with one result, labelled with that ID; each cell
// keeps the name it was asked under.
func TestMixAliasesShareSimulations(t *testing.T) {
	o := TestOptions()
	o.Scale = 0.023
	cells, err := runGrid(o, campaign.Spec{Platforms: kindNames(platform.ZnG), Scenarios: []string{"bfs1-gaus", "consol-2"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := memoStats(t, o); st.Sims != 1 {
		t.Errorf("aliasing scenarios performed %d simulations, want 1", st.Sims)
	}
	r1, r2 := cells[0].Result, cells[1].Result
	if !reflect.DeepEqual(r1, r2) || r1.Workload != "bfs1+gaus" {
		t.Errorf("aliased results differ or are not labelled bfs1+gaus: %+v vs %+v", r1, r2)
	}
	if n1, n2 := cells[0].Cell.Mix.Name, cells[1].Cell.Mix.Name; n1 != "bfs1-gaus" || n2 != "consol-2" {
		t.Errorf("cell names not preserved: %q / %q", n1, n2)
	}
}

func TestAblationGC(t *testing.T) {
	tab, err := AblationGC(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAblGC(tab); err != nil {
		t.Error(err)
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
	c := cells{t: tab}
	var got []string
	for _, l2 := range c.labels() {
		got = append(got, c.str(l2, "size (MB)"))
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
