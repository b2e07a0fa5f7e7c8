package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"zng/internal/stats"
)

// shapeTable builds a check's input from a header and rows, each
// written as "|"-separated cells.
func shapeTable(header string, rows ...string) *stats.Table {
	t := stats.NewTable("", strings.Split(header, "|")...)
	for _, r := range rows {
		var cells []any
		for _, c := range strings.Split(r, "|") {
			cells = append(cells, c)
		}
		t.AddRow(cells...)
	}
	return t
}

// TestShapeChecksFail feeds every registered check a table that
// breaks its Shape, and three malformed tables (a missing column, a
// missing row, a non-numeric cell), and pins the verdict each prints.
// A check that passes a broken table, or that FAILs for a reason
// other than the one it asserts, proves nothing in the docs.
func TestShapeChecksFail(t *testing.T) {
	tableII := make([]string, 16)
	for i := range tableII {
		tableII[i] = fmt.Sprintf("app%d|suite|0.5|0.55|1", i)
	}
	tableII[15] = "betw|suite|0.9|0.5|1"
	fig10 := "workload|Hetero|HybridGPU|Optane|ZnG-base|ZnG-rdopt|ZnG-wropt|ZnG"

	cases := []struct {
		id   string
		tab  *stats.Table
		want string
	}{
		{"table1", shapeTable("component|parameter|value", append(slices.Repeat([]string{"Z-NAND|p|1"}, 13),
			"Flash network|type|crossbar", "Optane DC PMM|tRP (ns)|763")...),
			`missing "mesh"`},
		{"table2", shapeTable("workload|suite|read ratio (paper)|read ratio (measured)|kernels", tableII...),
			"betw: measured read ratio 0.500 vs paper 0.900 (|delta| > 0.15)"},
		{"fig1b", shapeTable("component|GB/s", "GDDR5 (gap line)|200", "DRAM buffer|8", "flash channel|12.8",
			"flash read|100", "flash write|150", "SSD engine|4"),
			"array reads must out-pace programs: flash read (100) must exceed flash write (150)"},
		{"fig3", shapeTable("medium|density (GB)|power (W/GB)", "GDDR5|1|1.88", "DDR4|2|0.38", "LPDDR4|4|0.2", "Z-NAND|64|0.5"),
			"DDR4 power 0.38 <= Z-NAND 0.5"},
		{"fig4c", shapeTable("medium|GB/s", "GDDR5|300", "DDR4|200", "LPDDR4|40", "ZSSD|12.8", "GPU-SSD|16", "HybridGPU|20"),
			"GDDR5/GPU-SSD ratio 19x, want >= 30x (paper ~80x)"},
		{"fig4d", shapeTable("component|GPU(DRAM)|HybridGPU", "TLB|5|5", "SSD engine|0|100", "flash array|0|300", "TOTAL|50|405"),
			"SSD engine fraction 0.25, want dominant (paper 0.67)"},
		{"fig5a", shapeTable("workload|GDDR5 IPC|direct Z-NAND IPC|degradation (x)", "bfs1-gaus|1|0.1|10", "pr-gaus|1|0.5|2"),
			"pr-gaus: degradation 2.0x, want >= 5x (paper up to 28x)"},
		{"fig5bcd", shapeTable("workload|read re-accesses|write redundancy|read %|write %", "bfs1-gaus|40|0.5|90|10", "AVERAGE|40|0.5||"),
			"average write redundancy 0.50, want > 1"},
		{"fig8b", shapeTable("channel|min|max|total", "ch00|3|3|48", "ch01|3|3|48"),
			"write distribution perfectly uniform; Fig. 8b asymmetry absent"},
		{"fig10", shapeTable(fig10, "bfs1-gaus|0.1|0.05|0.9|0.1|0.02|0.3|1", "AVERAGE|0.1|0.05|0.9|0.1|0.02|0.3|1"),
			"ZnG-base (0.1) must trail HybridGPU (0.05) on average"},
		{"fig11", shapeTable("workload|HybridGPU|ZnG-base|ZnG-rdopt|ZnG-wropt|ZnG", "AVERAGE|3|1|1|1|2.5"),
			"ZnG average bandwidth 2.50 must exceed HybridGPU's 3.00"},
		{"fig12", shapeTable("workload|L2 hit (base)|L2 hit (rdopt)|prefetch KB (rdopt)|array fills (base)|array fills (rdopt)",
			"bfs1-gaus|0.3|0.2|100|10|9", "pr-gaus|0.4|0.3|50|10|9"),
			"mean rdopt L2 hit rate 0.250 below base 0.350"},
		{"fig13", shapeTable(`high \ low|0.01|0.05|0.2`, "0.1|0.7|0.7|0.7", "0.3|0.7|0|0.7"),
			"threshold cell (high=0.3, low=0.05) collapsed to IPC 0"},
		{"abl-writenet", shapeTable("workload|SWnet|FCnet|NiF|migrations (NiF)", "betw-back|0.5|0.5|0.5|0", "bfs4-back|0.5|0|0.5|0"),
			"bfs4-back: FCnet IPC 0, want positive"},
		{"abl-consolidation", shapeTable("mix|degree|HybridGPU|ZnG|HybridGPU (vs solo)|ZnG (vs solo)",
			"consol-1|1|0.1|0.5|1|1", "consol-2|2|0.2|0.8|2|1.6", "consol-3|3|0.25|0.9|2.5|1.8", "consol-4|4|0.3|1|3|2"),
			"at degree 4 ZnG retains 2.000 of solo IPC vs HybridGPU's 3.000: ZnG must degrade at least as gracefully"},
		{"abl-gc", shapeTable("metric|value", "page writes|4000", "log merges|240", "merge programs|3600", "stalled writes|240",
			"max block erase count|300", "free blocks remaining|2", "write amplification|1.9"),
			"max erase 300 exceeds merges 240: wear levelling broken"},
		{"abl-l2", shapeTable("L2 config|size (MB)|IPC|L2 hit rate", "1x SRAM sets|6|0.4|0.2", "2x SRAM sets|12|0.5|0"),
			"2x SRAM sets: L2 hit rate 0, want positive"},

		// Malformed tables fail on the first cell that cannot be read.
		{"fig10", shapeTable("workload|HybridGPU|ZnG", "AVERAGE|0.2|1"), `no column "ZnG-base"`},
		{"fig11", shapeTable("workload|HybridGPU|ZnG", "bfs1-gaus|3|8"), `no row "AVERAGE"`},
		{"fig5a", shapeTable("workload|GDDR5 IPC|direct Z-NAND IPC|degradation (x)", "bfs1-gaus|1|0.1|n/a"),
			`row "bfs1-gaus", column "degradation (x)": "n/a" is not numeric`},
	}
	broken := map[string]bool{}
	for _, tc := range cases {
		f, err := FigureByID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		broken[tc.id] = true
		if got, want := f.Verdict(tc.tab), "FAIL — "+tc.want; got != want {
			t.Errorf("%s: verdict %q, want %q", tc.id, got, want)
		}
	}
	for _, id := range FigureIDs() {
		if !broken[id] {
			t.Errorf("%s: no table breaks its shape", id)
		}
	}
}
