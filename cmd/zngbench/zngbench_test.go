package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/platform"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.3, 0.7, 1.1, 1.0, 0.8}, [3]float64{0.775, 0.95, 1.15}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
		if m := median(c.xs); m != q2 {
			t.Errorf("median(%v) = %v, want the middle quartile %v", c.xs, m, q2)
		}
	}
}

func TestSummarizeDropsNonFinite(t *testing.T) {
	s := summarize([]metricDef{{"a", "ms", "lower"}, {"b", "ms", "lower"}},
		samples{"a": {2, math.NaN(), 4, math.Inf(1)}})
	if a := s["a"]; a.N != 2 || a.Value != 3 || a.Unit != "ms" {
		t.Errorf("a = %+v, want the median of the 2 finite samples", a)
	}
	if b := s["b"]; b.N != 0 || b.Value != 0 {
		t.Errorf("b = %+v, want 0 from 0 samples", b)
	}
}

func TestFoldTopFixture(t *testing.T) {
	top, err := os.ReadFile(filepath.Join("testdata", "top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldTop(string(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache": 20, "sim": 15, "runtime_malloc": 15, "runtime_gc": 13, "runtime_maps": 9,
		"other": 7, "gpu": 6, "mmu": 5, "ftl": 2, "noc": 2, "workload": 2,
		"regcache": 1, "prefetch": 1, "flash": 1, "platform": 1,
		"mem": 0, "ssd": 0, "dram": 0,
	}
	if len(got) != len(want) {
		t.Errorf("fold has %d layers, want %d: %v", len(got), len(want), got)
	}
	for layer, w := range want {
		if g, ok := got[layer]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", layer, g, w)
		}
	}
	// Every cpu.* layer of the fold is a declared per-layer metric.
	for layer := range got {
		if !slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == "cpu."+layer }) {
			t.Errorf("fold layer %q has no cpu.%s metric", layer, layer)
		}
	}
}

func TestFoldTopRejectsEmptyProfile(t *testing.T) {
	if _, err := foldTop("      flat  flat%   sum%        cum   cum%\n"); err == nil {
		t.Error("a profile without samples folded without error")
	}
}

func TestSweepSpecIsSeeded(t *testing.T) {
	keys := func(spec campaign.Spec) []string {
		cells, err := spec.Expand(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range cells {
			out = append(out, c.Key)
		}
		return out
	}
	a := keys(sweepSpec(7, false))
	if !slices.Equal(a, keys(sweepSpec(7, false))) {
		t.Error("one seed gave two different request orders")
	}
	b := keys(sweepSpec(8, false))
	if slices.Equal(a, b) {
		t.Error("seeds 7 and 8 gave the same request order")
	}
	if len(a) != len(servePlatforms)*len(serveScenarios)*len(serveScales) {
		t.Errorf("the sweep has %d cells", len(a))
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) || len(slices.Compact(a)) != len(b) {
		t.Error("two seeds sweep different cells, or a cell repeats")
	}
}

func TestWarmedCheck(t *testing.T) {
	spec := campaign.Spec{Platforms: []string{"ZnG"}, Scenarios: []string{"solo-bfs1"}, Scales: []float64{0.1}}
	cells, err := spec.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	stored := platform.Result{Kind: platform.ZnG, Workload: "solo-bfs1", IPC: 0.5, Cycles: 100, Insts: 50}
	w := &warmed{cells: cells, res: []platform.Result{stored}, index: map[string]int{cells[0].Key: 0}}
	relabeled, other := stored, stored
	relabeled.Workload = "bfs1"
	other.IPC = 0.6
	stray := cells[0]
	stray.Key = "elsewhere"
	for _, c := range []struct {
		name string
		cr   campaign.CellResult
		ok   bool
	}{
		{"stored", campaign.CellResult{Cell: cells[0], Result: stored}, true},
		{"relabeled", campaign.CellResult{Cell: cells[0], Result: relabeled}, true},
		{"different result", campaign.CellResult{Cell: cells[0], Result: other}, false},
		{"cell error", campaign.CellResult{Cell: cells[0], Err: errors.New("peer down")}, false},
		{"unknown cell", campaign.CellResult{Cell: stray, Result: stored}, false},
		{"no result", campaign.CellResult{Cell: cells[0]}, false},
	} {
		if err := w.check(c.cr); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if !slices.Equal(b.Paths, []string{"cmd/zngbench"}) || len(b.Command) == 0 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("workloads %v, want %v", workloads, workloadNames)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || better != "lower" && better != "higher" {
			t.Errorf("metric %q: bad name, unit %q or better %q", name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	var e2e, layer []metricDef
	setupBound, maxOther := 0.0, 0.0
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		} else {
			maxOther = max(maxOther, *m.Bound)
		}
	}
	if !slices.Contains(e2e, metricDef{"setup_s", "s", "lower"}) || setupBound <= maxOther {
		t.Errorf("setup_s must be declared in s, lower, with the largest bound (%v vs %v)", setupBound, maxOther)
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	// The harness emits exactly its catalogs; the file must declare them.
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the harness catalog")
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the harness catalog")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}

// TestQuick builds the harness and zngd, and runs every workload in
// -quick mode, untraced and traced, the way the benchmark command does.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and boots zngd")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	dir := t.TempDir()
	self, zngd := filepath.Join(dir, "zngbench"), filepath.Join(dir, "zngd")
	for _, build := range [][]string{{"-o", self, "."}, {"-o", zngd, "zng/cmd/zngd"}} {
		if out, err := exec.Command(goBin, append([]string{"build"}, build...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", build, err, out)
		}
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				out, err := exec.Command(self, "-workload", w, "-seed", "3", "-trace", trace, "-quick",
					"-zngd", zngd, "-work", dir).Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				cpu := 0.0
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or not in %s", d.name, d.unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
					}
					if strings.HasPrefix(d.name, "cpu.") {
						cpu += m.Value
					}
				}
				if _, sim := simWorkloads[w]; sim && trace == "1" && math.Abs(cpu-100) > 1 {
					t.Errorf("cpu shares sum to %v, want 100", cpu)
				}
			})
		}
	}
	// A bad invocation fails without printing a result.
	out, err := exec.Command(self, "-workload", "nope", "-seed", "1").Output()
	if err == nil || len(out) != 0 {
		t.Errorf("unknown workload: err %v, stdout %q", err, out)
	}
}
