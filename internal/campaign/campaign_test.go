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

// doc makes an override document from a JSON literal.
func doc(s string) json.RawMessage { return json.RawMessage(s) }

func TestExpandGridOrderAndKeys(t *testing.T) {
	spec := Spec{
		Name:      "grid",
		Platforms: []string{"ZnG", "HybridGPU"},
		Scenarios: []string{"betw-back", "pr-gaus"},
		Scales:    []float64{0.1, 0.2},
		Overrides: []Override{{}, {Config: doc(`{"L2STT":{"Sets":8192}}`)}},
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
	if !cells[0].Override.IsZero() || cells[8].Cfg.L2STT.Sets != 8192 {
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
		"unknown field":    {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Overrides: []Override{{Config: doc(`{"RegCache":{"Nett":2}}`)}}},
		"bad reg net":      {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Overrides: []Override{{Config: doc(`{"RegCache":{"Net":7}}`)}}},
		"bad waste":        {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Overrides: []Override{{Config: doc(`{"Prefetch":{"HighWaste":2}}`)}}},
		"not an object":    {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Overrides: []Override{{Config: doc(`[8]`)}}},
		"data after":       {Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Overrides: []Override{{Config: doc(`{} {}`)}}},
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
	atCap.Overrides = []Override{{}, {Config: doc(`{"L2STT":{"Sets":8192}}`)}}
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
	ov := Override{Config: doc(`{"L2STT":{"Sets":8192},"Flash":{"Channels":8},
		"Prefetch":{"CutoffThresh":1073741824,"HighWaste":0.5,"LowWaste":0},"RegCache":{"Net":0}}`)}
	cfg, err := ov.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.L2STT.Sets = 8192
	want.Flash.Channels = 8
	want.Prefetch.CutoffThresh = 1 << 30
	want.Prefetch.HighWaste, want.Prefetch.LowWaste = 0.5, 0
	want.RegCache.Net = config.SWnet
	if cfg != want {
		t.Errorf("Apply = %+v, want %+v", cfg, want)
	}
	// A cutoff of 2^30 is above the predictor counter's saturation, so
	// the document turns prefetch off.
	if cfg.Prefetch.CutoffThresh <= 1<<base.Prefetch.CounterBits {
		t.Errorf("cutoff %d does not exceed counter saturation", cfg.Prefetch.CutoffThresh)
	}
	// The base config is untouched and a zero override, an empty
	// document and a null one are no-ops.
	if base != config.Default() {
		t.Error("Apply mutated the base configuration")
	}
	for _, ov := range []Override{{}, {Config: doc(`{}`)}, {Config: doc(` null `)}, {Name: "base"}} {
		if same, err := ov.Apply(base); err != nil || same != base {
			t.Errorf("%+v perturbed the configuration: %v", ov, err)
		}
	}
}

// TestOverrideErrorsNameTheField: a document the model cannot run is
// an error naming the override and the field, and for a value out of
// range the range too: an L2 of 2^40 sets is refused, never wrapped to
// a size the model runs under the override's label.
func TestOverrideErrorsNameTheField(t *testing.T) {
	for in, want := range map[string]string{
		`{"L2STT":{"Sets":1099511627776}}`:        "campaign: override big: config: L2STT.Sets 1099511627776, want [1, 1048576]",
		`{"L2STT":{"Setz":8}}`:                    `campaign: override big: offset 17: config: unknown field "L2STT.Setz"`,
		`{"L2STT":{"Sets":18446744073709552640}}`: "campaign: override big: offset 37: config: L2STT.Sets: strconv.ParseInt: ",
		`{"L2STT":{"Sets":8.5}}`:                  "config: L2STT.Sets: strconv.ParseInt: ",
		`{"RegCache":{"Net":"NiF"}}`:              "campaign: override big: offset 19: ",
	} {
		_, err := Override{Name: "big", Config: doc(in)}.Apply(config.Default())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", in, err, want)
		}
	}
}

func TestOverrideLabels(t *testing.T) {
	for _, tc := range []struct {
		ov   Override
		want string
	}{
		{Override{}, "base"},
		{Override{Name: "tuned"}, "tuned"},
		{Override{Name: "ch8", Config: doc(`{"Flash":{"Channels":8}}`)}, "ch8"},
		{Override{Config: doc(`{ "Flash" : { "Channels" : 8 } }`)}, `{"Flash":{"Channels":8}}`},
		{Override{Config: doc(`{"Prefetch":{"LowWaste":0}}`)}, `{"Prefetch":{"LowWaste":0}}`},
	} {
		if got := tc.ov.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.ov, got, tc.want)
		}
	}
	// A cell names its override unless the override is the zero one.
	c := Cell{Kind: platform.ZnG, Scale: 0.5, Override: Override{Config: doc(`{"Flash":{"Channels":8}}`)}}
	c.Mix.Name = "betw-back"
	if got, want := c.String(), `ZnG on betw-back at scale 0.5 [{"Flash":{"Channels":8}}]`; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	c.Override = Override{}
	if got, want := c.String(), "ZnG on betw-back at scale 0.5"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Name:      "l2-sweep",
		Platforms: []string{"ZnG"},
		Scenarios: []string{"betw-back"},
		Scales:    []float64{0.12},
		Overrides: []Override{{}, {Name: "l2x8", Config: doc(`{"L2STT":{"Sets":8192}}`)},
			{Config: doc(`{"Prefetch":{"CutoffThresh":1073741824}}`)}, {Config: doc(`{"Prefetch":{"LowWaste":0}}`)}},
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
	// A knob of the retired override form is an unknown field.
	dec = json.NewDecoder(strings.NewReader(`{"platforms":["ZnG"],"scenarios":["betw-back"],"overrides":[{"l2_mult":8}]}`))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err == nil || !strings.Contains(err.Error(), `"l2_mult"`) {
		t.Errorf("l2_mult decoded: %v", err)
	}
}
