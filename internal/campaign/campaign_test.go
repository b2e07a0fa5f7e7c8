package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/platform"
)

// fp makes a pointer-valued threshold for override literals.
func fp(v float64) *float64 { return &v }

func TestExpandGridOrderAndKeys(t *testing.T) {
	spec := Spec{
		Name:      "grid",
		Platforms: []string{"ZnG", "HybridGPU"},
		Scenarios: []string{"betw-back", "pr-gaus"},
		Scales:    []float64{0.1, 0.2},
		Overrides: []Override{{}, {L2Mult: 8}},
	}
	base := config.Default()
	cells, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2*2 {
		t.Fatalf("expanded %d cells, want 16", len(cells))
	}
	// Platform innermost, then scenario, then scale, then override.
	if cells[0].Kind != platform.ZnG || cells[1].Kind != platform.HybridGPU {
		t.Errorf("platform axis not innermost: %v, %v", cells[0].Kind, cells[1].Kind)
	}
	if cells[0].Mix.Name != "betw-back" || cells[2].Mix.Name != "pr-gaus" {
		t.Errorf("scenario axis order wrong: %q, %q", cells[0].Mix.Name, cells[2].Mix.Name)
	}
	if cells[0].Scale != 0.1 || cells[4].Scale != 0.2 {
		t.Errorf("scale axis order wrong: %v, %v", cells[0].Scale, cells[4].Scale)
	}
	if !cells[0].Override.IsZero() || cells[8].Override.L2Mult != 8 {
		t.Errorf("override axis order wrong: %+v, %+v", cells[0].Override, cells[8].Override)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if want := cellkey.Key(c.Kind, c.Mix.ID(), c.Scale, c.Cfg); c.Key != want {
			t.Errorf("cell %d key is not the store's content address", i)
		}
	}
	// The grid is all-distinct here, so every key is unique.
	if got := UniqueCells(cells); got != len(cells) {
		t.Errorf("UniqueCells = %d, want %d", got, len(cells))
	}
	// Determinism: a second expansion is identical.
	again, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("expansion is not deterministic")
	}
}

func TestExpandAliasingScenariosShareKeys(t *testing.T) {
	// consol-2 and bfs1-gaus alias the same composition: two grid
	// points, one content address.
	spec := Spec{Platforms: []string{"ZnG"}, Scenarios: []string{"consol-2", "bfs1-gaus"}, Scales: []float64{0.5}}
	cells, err := spec.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Key != cells[1].Key {
		t.Error("aliasing scenarios did not share a content address")
	}
	if cells[0].Mix.Name == cells[1].Mix.Name {
		t.Error("aliasing scenarios lost their own labels")
	}
	if got := UniqueCells(cells); got != 1 {
		t.Errorf("UniqueCells = %d, want 1", got)
	}
}

func TestExpandAdhocScenario(t *testing.T) {
	// Both ad-hoc spellings — zngsim's comma syntax (spec files) and
	// the '+' mix-ID form (safe inside comma-separated flag lists) —
	// resolve to the same composed cell.
	for _, entry := range []string{"bfs1,gaus*1.5", "bfs1+gaus*1.5"} {
		spec := Spec{Platforms: []string{"GDDR5"}, Scenarios: []string{entry}, Scales: []float64{0.5}}
		cells, err := spec.Expand(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 || cells[0].Mix.ID() != "bfs1+gaus*1.5" {
			t.Errorf("ad-hoc scenario %q resolved to %d cells, mix %q", entry, len(cells), cells[0].Mix.ID())
		}
	}
}

func TestExpandValidation(t *testing.T) {
	base := config.Default()
	for name, spec := range map[string]Spec{
		"no platforms":     {Scenarios: []string{"betw-back"}},
		"no scenarios":     {Platforms: []string{"ZnG"}},
		"unknown platform": {Platforms: []string{"GTX9000"}, Scenarios: []string{"betw-back"}},
		"unknown scenario": {Platforms: []string{"ZnG"}, Scenarios: []string{"no-such"}},
		"negative scale":   {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Scales: []float64{-1}},
		"zero scale":       {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Scales: []float64{0}},
		"unfit scale":      {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Scales: []float64{1e308}},
		"unfit weight":     {Platforms: []string{"ZnG"}, Scenarios: []string{"bfs1*1e300"}},
		"infinite weight":  {Platforms: []string{"ZnG"}, Scenarios: []string{"bfs1*inf"}},
		"bad override":     {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Overrides: []Override{{RegNet: "nope"}}},
		"bad waste":        {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Overrides: []Override{{HighWaste: fp(2)}}},
	} {
		if _, err := spec.Expand(base); err == nil {
			t.Errorf("%s: expansion succeeded, want error", name)
		}
	}
}

// TestExpandCellLimit: a spec over MaxCells is refused before any of
// its grid is built. The 5.5 KB spec below names 720,000 cells, which
// took seconds and gigabytes to expand while nothing bounded it. A
// grid of exactly MaxCells still expands.
func TestExpandCellLimit(t *testing.T) {
	base := config.Default()
	scales := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i+1) / 100
		}
		return out
	}
	huge := Spec{Platforms: platform.KindNames(), Scenarios: slices.Repeat([]string{"solo-bfs1"}, 300), Scales: scales(300)}
	start := time.Now()
	_, err := huge.Expand(base)
	if took := time.Since(start); err == nil || took > time.Second {
		t.Fatalf("720,000-cell spec: err %v after %v, want a rejection within a second", err, took)
	}
	if !strings.Contains(err.Error(), "16384-cell limit") {
		t.Errorf("rejection %q does not name the limit", err)
	}

	atCap := Spec{Platforms: platform.KindNames(), Scenarios: slices.Repeat([]string{"solo-bfs1"}, 32), Scales: scales(64)}
	cells, err := atCap.Expand(base)
	if err != nil || len(cells) != MaxCells {
		t.Fatalf("spec at the cap: %d cells, err %v; want %d", len(cells), err, MaxCells)
	}
	atCap.Overrides = []Override{{}, {L2Mult: 8}}
	if _, err := atCap.Expand(base); err == nil {
		t.Error("spec at twice the cap expanded")
	}
}

// FuzzSpecExpand decodes its input as POST /v1/campaigns and zngsweep
// -spec do. Expand must never panic, and an accepted spec must yield
// exactly the product of its defaulted axis lengths, at most MaxCells,
// in index order, each cell keyed by its content address, with the
// same keys on a second expansion.
func FuzzSpecExpand(f *testing.F) {
	base := config.Default()
	f.Fuzz(func(t *testing.T, b []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		cells, err := spec.Expand(base)
		if err != nil {
			return
		}
		want := len(spec.Platforms) * len(spec.Scenarios) * max(len(spec.Scales), 1) * max(len(spec.Overrides), 1)
		if len(cells) != want || want > MaxCells {
			t.Fatalf("%q expanded to %d cells, want %d (at most %d)", b, len(cells), want, MaxCells)
		}
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("%q: cell %d carries index %d", b, i, c.Index)
			}
			if k := cellkey.Key(c.Kind, c.Mix.ID(), c.Scale, c.Cfg); c.Key != k {
				t.Fatalf("%q: cell %d key %s, want %s", b, i, c.Key, k)
			}
		}
		again, err := spec.Expand(base)
		if err != nil || len(again) != len(cells) {
			t.Fatalf("%q: second expansion gave %d cells, err %v", b, len(again), err)
		}
		for i := range cells {
			if again[i].Key != cells[i].Key {
				t.Fatalf("%q: cell %d key changed between expansions", b, i)
			}
		}
	})
}

func TestOverrideApply(t *testing.T) {
	base := config.Default()
	ov := Override{L2Mult: 8, Channels: 8, PrefetchOff: true, HighWaste: fp(0.5), LowWaste: fp(0.1), RegNet: "SWnet"}
	cfg, err := ov.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L2STT.Sets != base.L2SRAM.Sets*8 {
		t.Errorf("L2 sets = %d, want 8x SRAM", cfg.L2STT.Sets)
	}
	if cfg.Flash.Channels != 8 {
		t.Errorf("channels = %d", cfg.Flash.Channels)
	}
	if cfg.Prefetch.CutoffThresh <= 1<<base.Prefetch.CounterBits {
		t.Errorf("prefetch_off cutoff %d does not exceed counter saturation", cfg.Prefetch.CutoffThresh)
	}
	if cfg.Prefetch.HighWaste != 0.5 || cfg.Prefetch.LowWaste != 0.1 {
		t.Errorf("waste thresholds = %v/%v", cfg.Prefetch.HighWaste, cfg.Prefetch.LowWaste)
	}
	if cfg.RegCache.Net != config.SWnet {
		t.Errorf("reg net = %v", cfg.RegCache.Net)
	}
	// The base config is untouched and a zero override is a no-op.
	if !reflect.DeepEqual(base, config.Default()) {
		t.Error("Apply mutated the base configuration")
	}
	same, err := Override{}.Apply(base)
	if err != nil || !reflect.DeepEqual(same, base) {
		t.Errorf("zero override perturbed the configuration: %v", err)
	}
	// An explicit zero threshold is a real override, not "inherit".
	zeroed, err := Override{LowWaste: fp(0)}.Apply(base)
	if err != nil || zeroed.Prefetch.LowWaste != 0 {
		t.Errorf("explicit zero threshold not applied: %v, %v", zeroed.Prefetch.LowWaste, err)
	}
}

func TestOverrideLabels(t *testing.T) {
	for _, tc := range []struct {
		ov   Override
		want string
	}{
		{Override{}, "base"},
		{Override{Name: "tuned"}, "tuned"},
		{Override{L2Mult: 8, Channels: 8, PrefetchOff: true}, "l2x8+ch8+nopf"},
		{Override{HighWaste: fp(0.5), RegNet: "NiF"}, "hi0.5+NiF"},
		{Override{LowWaste: fp(0)}, "lo0"},
	} {
		if got := tc.ov.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.ov, got, tc.want)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Name:      "l2-sweep",
		Platforms: []string{"ZnG"},
		Scenarios: []string{"betw-back"},
		Scales:    []float64{0.12},
		Overrides: []Override{{}, {L2Mult: 8}, {PrefetchOff: true}, {LowWaste: fp(0)}},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip lost data:\n%+v\n%+v", spec, back)
	}
}
