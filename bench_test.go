// Top-level benchmark harness: BenchmarkFigures times every registered
// table and figure of the ZnG paper's evaluation, one sub-benchmark
// each, and BenchmarkScaleSweep and BenchmarkPlatforms time single
// simulations. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks use reduced trace scales so the whole suite completes in
// minutes; cmd/zngfig regenerates the figures at full fidelity.
package zng_test

import (
	"runtime"
	"testing"

	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/workload"
)

func benchOptions() experiments.Options {
	o := experiments.TestOptions()
	o.Mixes = workload.PaperPairs()[:2]
	return o
}

// BenchmarkFigures runs every registered figure's driver under
// benchOptions, one sub-benchmark per figure named after its driver.
// The figure's table holds its numbers, so no metric is reported.
func BenchmarkFigures(b *testing.B) {
	for _, f := range experiments.Registry() {
		b.Run(f.Driver, benchFigure(f))
	}
}

// benchFigure times one figure's driver on a fresh memo each
// iteration, so every iteration simulates its whole grid.
func benchFigure(f experiments.Figure) func(*testing.B) {
	return func(b *testing.B) {
		o := benchOptions()
		for i := 0; i < b.N; i++ {
			o.Runner = experiments.NewMemo()
			if _, err := f.Run(o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The scale ladder runs ZnG and HybridGPU on scaleSweepMix under the
// Table I configuration at scaleSweepBase times each of
// scaleSweepFactors: TestScaleSweepStateSublinear checks how
// translation state grows up it, and BenchmarkScaleSweep times its top
// rung.
const (
	scaleSweepMix  = "bfs1-gaus"
	scaleSweepBase = 0.02
)

var (
	scaleSweepFactors = []int{1, 4, 16, 64}
	scaleSweepKinds   = []platform.Kind{platform.ZnG, platform.HybridGPU}
)

// TestScaleSweepStateSublinear asserts the ladder's shape: work grows
// with scale while each platform's translation state grows
// sublinearly, so the dense tables amortize and ZnG's state bytes per
// mapped page fall. The state is the simulator's host tables, not a
// modelled quantity, so it is checked here rather than in a figure.
func TestScaleSweepStateSublinear(t *testing.T) {
	mix, err := workload.MixByName(scaleSweepMix)
	if err != nil {
		t.Fatal(err)
	}
	var insts, perPage []float64
	state := map[platform.Kind][]float64{}
	for _, f := range scaleSweepFactors {
		for _, k := range scaleSweepKinds {
			r, err := platform.RunMix(k, mix, scaleSweepBase*float64(f), config.Default())
			if err != nil {
				t.Fatal(err)
			}
			// translation_state_bytes leaves Result.Extra once the
			// platforms' StateBytes methods are read directly.
			bytes := r.Extra["translation_state_bytes"]
			state[k] = append(state[k], bytes)
			if k == platform.ZnG {
				insts = append(insts, float64(r.Insts))
				perPage = append(perPage, bytes/r.Extra["mapped_pages"])
			}
		}
	}
	last := len(insts) - 1
	for i := 1; i <= last; i++ {
		if insts[i] <= insts[i-1] {
			t.Errorf("insts not increasing with scale: rung %d has %v after %v", i, insts[i], insts[i-1])
		}
	}
	for _, k := range scaleSweepKinds {
		s := state[k]
		for i := 1; i <= last; i++ {
			if s[i] < s[i-1] {
				t.Errorf("%v translation state shrank between rungs %d and %d (%v -> %v)", k, i-1, i, s[i-1], s[i])
			}
		}
		if s[0] <= 0 || s[last]/s[0] >= insts[last]/insts[0] {
			t.Errorf("%v translation state grew %vx over a %vx work increase, want sublinear growth",
				k, s[last]/s[0], insts[last]/insts[0])
		}
	}
	if perPage[last] >= perPage[0] {
		t.Errorf("ZnG state bytes per mapped page did not fall (%v at the base rung, %v at the top)", perPage[0], perPage[last])
	}
}

// BenchmarkScaleSweep runs the top rung of the scale ladder (64x) and
// reports the two machine-dependent numbers a result omits: host-side
// simulated insts/sec and the process heap high-water after the run.
// Run it alone in a fresh process (`go test -bench=ScaleSweep
// -benchtime=1x`) when comparing peak heap across changes — heap-sys
// never shrinks, so earlier benchmarks inflate it.
func BenchmarkScaleSweep(b *testing.B) {
	mix, err := workload.MixByName(scaleSweepMix)
	if err != nil {
		b.Fatal(err)
	}
	scale := scaleSweepBase * float64(scaleSweepFactors[len(scaleSweepFactors)-1])
	var insts uint64
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, k := range scaleSweepKinds {
			r, err := platform.RunMix(k, mix, scale, config.Default())
			if err != nil {
				b.Fatal(err)
			}
			insts += r.Insts
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(m.HeapSys), "peak-heap-bytes")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(insts)*float64(b.N)/secs, "host-insts/sec")
	}
}

// BenchmarkPlatforms gives per-platform simulation cost on one pair —
// useful when profiling the simulator itself.
func BenchmarkPlatforms(b *testing.B) {
	o := benchOptions()
	mix := o.Mixes[0]
	for _, k := range platform.Kinds() {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				r, err := platform.RunMix(k, mix, o.Scale, o.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}
