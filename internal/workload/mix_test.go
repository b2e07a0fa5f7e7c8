package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestScaleCheckRejectsUnfitTraces: an infinite weight is a parse
// error, and a scale × weight whose instruction counts do not fit an
// int fails the scale check instead of wrapping to the smallest trace.
// A tiny positive product still runs the 4-instruction floor.
func TestScaleCheckRejectsUnfitTraces(t *testing.T) {
	for _, list := range []string{"bfs1*inf", "bfs1*+Inf", "bfs1*infinity", "bfs1*NaN", "bfs1*-1"} {
		if _, err := ParseApps(list); err == nil {
			t.Errorf("ParseApps(%q) accepted a weight that is not positive and finite", list)
		}
	}
	huge, err := ParseApps("bfs1*1e308")
	if err != nil {
		t.Fatal(err)
	}
	if err := huge.CheckScale(1); err == nil || !strings.Contains(err.Error(), "bfs1") {
		t.Errorf("bfs1*1e308 at scale 1: error %v, want one naming bfs1", err)
	}
	if _, err := huge.Apps(1); err == nil {
		t.Error("Apps instantiated bfs1*1e308 at scale 1")
	}
	solo, err := MixByName("solo-bfs1")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1e308, math.Inf(1), 0, -1, math.NaN()} {
		if err := solo.CheckScale(scale); err == nil {
			t.Errorf("solo-bfs1 at scale %v passed the scale check", scale)
		}
	}
	// A scale that is not positive and finite fails as such, whatever
	// the mix holds; it is every entry point's one scale check.
	for _, scale := range []float64{math.Inf(1), math.Inf(-1), 0, -1, math.NaN()} {
		want := fmt.Sprintf("workload: scale must be positive and finite, got %v", scale)
		for _, m := range []Mix{solo, {}} {
			if err := m.CheckScale(scale); err == nil || err.Error() != want {
				t.Errorf("mix %q at scale %v: error %v, want %q", m.Name, scale, err, want)
			}
		}
	}
	// A product that underflows to zero has no trace at all.
	underflow := Mix{Components: []Component{{App: "bfs1", Weight: 1e-300}}}
	if err := underflow.CheckScale(1e-300); err == nil {
		t.Error("scale × weight of 0 passed the scale check")
	}

	tiny, err := ParseApps("bfs1*1e-320")
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.CheckScale(1); err != nil {
		t.Fatal(err)
	}
	apps, err := tiny.Apps(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := apps[0].MemInstsPerWarp(); n != 4 {
		t.Errorf("bfs1*1e-320 runs %d memory instructions per warp, want the floor of 4", n)
	}
}

// TestScaleCheckKeepsRegisteredTraces: every registered scenario passes
// the check at DefaultScale (2.0) and at the benchmark's 1.28, with the
// instruction totals it had before the check existed, so no cell key
// or result moves.
func TestScaleCheckKeepsRegisteredTraces(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		total int
	}{{2.0, 6085760}, {1.28, 3889728}} {
		total := 0
		for _, m := range Scenarios() {
			if err := m.CheckScale(tc.scale); err != nil {
				t.Fatalf("%s at scale %v: %v", m.Name, tc.scale, err)
			}
			apps, err := m.Apps(tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range apps {
				total += a.TotalMemInsts()
			}
		}
		if total != tc.total {
			t.Errorf("the %d scenarios total %d memory instructions at scale %v, want %d", len(Scenarios()), total, tc.scale, tc.total)
		}
	}
}

// TestMixIDWeightsHaveNoPlus: a weight's exponent is written without
// '+', so an ID splits back into its components at every '+'.
func TestMixIDWeightsHaveNoPlus(t *testing.T) {
	m := Mix{Components: []Component{{App: "bfs1", Weight: 1e6}, {App: "gaus", Weight: 2.5e21}, {App: "pr", Weight: 1e-7}}}
	if got, want := m.ID(), "bfs1*1e06+gaus*2.5e21+pr*1e-07"; got != want {
		t.Errorf("ID = %q, want %q", got, want)
	}
}

// FuzzParseApps: the ad-hoc mix syntax never panics; an accepted mix
// has registered components with finite positive weights; and its ID
// survives the trip remote.Client and campaign specs give it, every '+'
// read back as a ',', so a peer keys the same cell. Seeds:
// testdata/fuzz/FuzzParseApps.
func FuzzParseApps(f *testing.F) {
	f.Fuzz(func(t *testing.T, list string) {
		m, err := ParseApps(list)
		if err != nil {
			return
		}
		if len(m.Components) == 0 {
			t.Fatalf("%q parsed to an empty mix", list)
		}
		for _, c := range m.Components {
			if _, err := SpecByName(c.App); err != nil {
				t.Fatalf("%q parsed to an unregistered app: %v", list, err)
			}
			if !(c.Weight > 0) || math.IsInf(c.Weight, 0) {
				t.Fatalf("%q parsed to %s with weight %v", list, c.App, c.Weight)
			}
		}
		back, err := ParseApps(strings.ReplaceAll(m.ID(), "+", ","))
		if err != nil {
			t.Fatalf("%q: its ID %q does not parse back: %v", list, m.ID(), err)
		}
		if back.ID() != m.ID() {
			t.Fatalf("%q: ID %q parses back as %q", list, m.ID(), back.ID())
		}
	})
}
