package lint_test

import (
	"testing"

	"zng/internal/lint"
	"zng/internal/lint/linttest"
)

// TestDeterminism pins the determinism analyzer against flagged and
// clean fixtures, with detrand playing internal/rng's blessed role.
func TestDeterminism(t *testing.T) {
	a := lint.NewDeterminism(lint.DeterminismConfig{
		Packages:    []string{"detdata", "detrand"},
		RandAllowed: []string{"detrand"},
	})
	linttest.Run(t, a, "detdata", "detrand")
}

// TestGuardedBy pins the lock tracker: straight-line locking,
// deferred unlocks, goroutine escapes, RLock writes, the Locked and
// caller-holds conventions, constructor freshness, cross-type guards
// and malformed annotations.
func TestGuardedBy(t *testing.T) {
	linttest.Run(t, lint.DefaultGuardedBy(), "gbdata")
}

// TestRegistry pins both registry halves against stand-in packages
// shaped like internal/experiments and internal/workload.
func TestRegistry(t *testing.T) {
	a := lint.NewRegistry(lint.RegistryConfig{
		ExperimentsPkg: "regfigs",
		TablePkg:       "regstats",
		TableType:      "Table",
		RegistryFunc:   "Registry",
		EntryType:      "Figure",
		RunField:       "Run",
		IDField:        "ID",

		ScenariosPkg:   "regmix",
		ScenariosFunc:  "Scenarios",
		MixType:        "Mix",
		ScenarioExempt: []string{"MixByName"},
	})
	linttest.Run(t, a, "regfigs", "regmix")
}

// TestCanonicalKey pins the canonical-shape walk at a stand-in sink.
func TestCanonicalKey(t *testing.T) {
	a := lint.NewCanonicalKey(lint.CanonicalKeyConfig{
		Sinks: []lint.Sink{{PkgSuffix: "cksink", Func: "Key"}},
	})
	linttest.Run(t, a, "ckdata")
}

// TestTreeClean runs the real suite over the real module: the
// repository must satisfy its own invariants. This is the test-time
// twin of the znglint CI gate, so a violation fails `go test ./...`
// even where CI is not running.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load(".", "zng/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
