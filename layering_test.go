package zng_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServingSkipsFigureRegistry pins the layering: the result codec,
// the store, the simulation service, the zngd daemon and the benchmark
// binary answer cells without linking the figure registry
// (internal/experiments), which sits above the service it runs its
// figures through.
func TestServingSkipsFigureRegistry(t *testing.T) {
	const registry = "zng/internal/experiments"
	for _, tc := range []struct{ dir, pkg string }{
		{".", "./internal/report"},
		{".", "./internal/store"},
		{".", "./internal/simsvc"},
		{".", "./cmd/zngd"},
		{"cmd/zngbench", "."}, // its own module
	} {
		cmd := exec.Command("go", "list", "-deps", tc.pkg)
		cmd.Dir = tc.dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -deps %s in %s: %v", tc.pkg, tc.dir, err)
		}
		if slices.Contains(strings.Fields(string(out)), registry) {
			t.Errorf("%s (in %s) depends on %s", tc.pkg, tc.dir, registry)
		}
	}
}
