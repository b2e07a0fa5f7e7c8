// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the ZnG paper's evaluation, each reporting the headline
// metric of that experiment via b.ReportMetric. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks use reduced trace scales so the whole suite completes in
// minutes; cmd/zngfig regenerates the figures at full fidelity.
package zng_test

import (
	"runtime"
	"strconv"
	"testing"

	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/stats"
	"zng/internal/workload"
)

func benchOptions() experiments.Options {
	o := experiments.TestOptions()
	o.Mixes = workload.PaperPairs()[:2]
	return o
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableII(0.1)
		if t.Rows() != 16 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig1b(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1b(config.Default())
		// The figure's headline: GDDR5's aggregate bandwidth (the "gap
		// line") over the SSD engine, HybridGPU's binding bottleneck.
		gddr5 := tableValue(b, t, "GDDR5 (gap line)")
		engine := tableValue(b, t, "SSD engine")
		if engine <= 0 {
			b.Fatal("SSD engine bandwidth not positive")
		}
		gap = gddr5 / engine
	}
	b.ReportMetric(gap, "dram_ssd_gap_x")
}

// tableValue extracts the numeric column of the named row.
func tableValue(b *testing.B, t *stats.Table, row string) float64 {
	b.Helper()
	for r := 0; r < t.Rows(); r++ {
		if t.Cell(r, 0) != row {
			continue
		}
		v, err := strconv.ParseFloat(t.Cell(r, 1), 64)
		if err != nil {
			b.Fatalf("row %q: bad cell %q: %v", row, t.Cell(r, 1), err)
		}
		return v
	}
	b.Fatalf("row %q not in table", row)
	return 0
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(config.Default())
	}
}

func BenchmarkFig4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4c(config.Default())
	}
}

func BenchmarkFig4d(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		_, _, hyb := experiments.Fig4d(config.Default())
		frac = hyb.Get("SSD engine") / hyb.Total()
	}
	b.ReportMetric(frac, "engine_frac")
}

func BenchmarkFig5a(b *testing.B) {
	o := benchOptions()
	o.Mixes = o.Mixes[:1]
	var worst float64
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		_, deg, err := experiments.Fig5a(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range deg {
			if d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst, "degradation_x")
}

func BenchmarkFig5bcd(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5bcd(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8b(b *testing.B) {
	o := benchOptions()
	var max uint64
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		_, heat, err := experiments.Fig8b(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range heat {
			for _, v := range row {
				if v > max {
					max = v
				}
			}
		}
	}
	b.ReportMetric(float64(max), "hottest_plane_writes")
}

func BenchmarkFig10(b *testing.B) {
	o := benchOptions()
	o.Mixes = o.Mixes[:1]
	var speedup float64
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		_, res, err := experiments.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		pair := o.Mixes[0].Name
		speedup = res[platform.ZnG][pair].IPC / res[platform.HybridGPU][pair].IPC
	}
	b.ReportMetric(speedup, "zng_vs_hybrid_x")
}

func BenchmarkFig11(b *testing.B) {
	o := benchOptions()
	o.Mixes = o.Mixes[:1]
	var bw float64
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		_, res, err := experiments.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		bw = res[platform.ZnG][o.Mixes[0].Name].FlashArrayGBps()
	}
	b.ReportMetric(bw, "zng_flash_gbps")
}

func BenchmarkFig12(b *testing.B) {
	o := benchOptions()
	o.Mixes = o.Mixes[:1]
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		if _, err := experiments.Fig12(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Sweep(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		if _, _, err := experiments.Fig13Sweep(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWriteNet(b *testing.B) {
	o := benchOptions()
	var nif float64
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		_, avg, err := experiments.AblationWriteNet(o)
		if err != nil {
			b.Fatal(err)
		}
		nif = avg[config.NiF]
	}
	b.ReportMetric(nif, "nif_ipc")
}

func BenchmarkAblationConsolidation(b *testing.B) {
	o := benchOptions()
	var retained float64
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		_, ipc, err := experiments.AblationConsolidation(o)
		if err != nil {
			b.Fatal(err)
		}
		retained = ipc[platform.ZnG][3] / ipc[platform.ZnG][0]
	}
	b.ReportMetric(retained, "zng_deg4_vs_solo")
}

func BenchmarkAblationGC(b *testing.B) {
	var merges uint64
	for i := 0; i < b.N; i++ {
		_, st := experiments.AblationGC()
		merges = st.Merges
	}
	b.ReportMetric(float64(merges), "merges")
}

func BenchmarkAblationL2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Runner = experiments.NewMemo()
		if _, err := experiments.AblationL2(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleSweep runs the top of the scale-sweep ladder (the 64x
// point, see experiments.ScaleSweep) on the ZnG/HybridGPU pair and
// reports the two machine-dependent numbers the deterministic docs
// figure deliberately omits: host-side simulated insts/sec and the
// process heap high-water after the run. Run it alone in a fresh
// process (`go test -bench=ScaleSweep -benchtime=1x`) when comparing
// peak heap across changes — heap-sys never shrinks, so earlier
// benchmarks inflate it.
func BenchmarkScaleSweep(b *testing.B) {
	o := benchOptions()
	mix := o.Mixes[0]
	factors := experiments.ScaleSweepFactors
	scale := experiments.ScaleSweepBase * float64(factors[len(factors)-1])
	var insts uint64
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, k := range []platform.Kind{platform.HybridGPU, platform.ZnG} {
			r, err := platform.RunMix(k, mix, scale, o.Cfg)
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
