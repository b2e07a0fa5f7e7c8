package experiments

import (
	"strings"
	"testing"

	"zng/internal/lint"
)

// TestRegistryComplete delegates the driver/registry bijection — and
// the scenario-constructor reachability check in internal/workload —
// to the znglint registry analyzer, which replaced the go/parser
// walk that used to live here. The analyzer is the authority (it is
// also the CI gate): every entry's Run names an exported driver of
// this package, registered once. This test keeps the property wired
// into plain `go test ./internal/experiments` and adds the one check
// static analysis cannot do: every registry entry is runtime-complete.
func TestRegistryComplete(t *testing.T) {
	pkgs, err := lint.Load(".", "zng/internal/experiments", "zng/internal/workload")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.DefaultRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}

	for _, fig := range Registry() {
		if fig.ID == "" || fig.Ref == "" || fig.Title == "" || fig.Claim == "" ||
			fig.Shape == "" || fig.Run == nil || fig.Check == nil {
			t.Errorf("registry entry %q is incomplete: %+v", fig.ID, fig)
		}
	}
}

func TestFigureByID(t *testing.T) {
	f, err := FigureByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	if f.DriverName() != "Fig10" || f.ID != "fig10" {
		t.Errorf("resolved %+v", f)
	}

	_, err = FigureByID("fig99")
	if err == nil {
		t.Fatal("want error for unknown id")
	}
	// The error must teach the valid vocabulary (the zngfig fail-fast
	// contract): every id plus the meta-targets.
	for _, id := range append(FigureIDs(), "all", "docs") {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %q", err, id)
		}
	}
}

func TestDocsOptions(t *testing.T) {
	o := DocsOptions()
	if len(o.Mixes) != 12 {
		t.Errorf("docs runs must cover all 12 pairs, got %d", len(o.Mixes))
	}
	te := TestOptions()
	if o.Scale != te.Scale || o.Cfg != te.Cfg {
		t.Error("docs regime must match the test regime (scale and config)")
	}
}
