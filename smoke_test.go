package zng_test

import (
	"flag"
	"testing"

	"zng/internal/experiments"
)

// TestBenchSmoke runs every benchmark of the harness exactly once
// (the -benchtime=1x contract, set programmatically) so that plain
// `go test ./...` exercises the bench code paths: a driver that starts
// failing or panicking breaks the test suite instead of rotting
// silently until someone next runs -bench.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke skipped in -short mode")
	}
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		t.Fatal("test.benchtime flag not registered")
	}
	old := bt.Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	smoke := func(name string, fn func(*testing.B)) {
		t.Run(name, func(t *testing.T) {
			r := testing.Benchmark(fn)
			if r.N < 1 {
				t.Fatalf("benchmark %s did not complete an iteration (it failed)", name)
			}
		})
	}
	// BenchmarkFigures' sub-benchmarks, one subtest each.
	for _, f := range experiments.Registry() {
		smoke(f.Driver, benchFigure(f))
	}
	smoke("ScaleSweep", BenchmarkScaleSweep)
	smoke("Platforms", BenchmarkPlatforms)
}
