package dram

import (
	"testing"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
)

func TestSingleAccessLatency(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default().GDDR5
	d := New(eng, cfg)
	var at sim.Tick
	d.Access(&mem.Request{Addr: 0, Size: 128, Done: sim.Func(func() { at = eng.Now() })})
	eng.Run()
	if at < cfg.ReadLat {
		t.Errorf("completed at %d, want >= device latency %d", at, cfg.ReadLat)
	}
	if d.Reads.Value() != 1 {
		t.Errorf("reads = %d", d.Reads.Value())
	}
}

func TestSaturationBandwidthNearConfigured(t *testing.T) {
	c := config.Default()
	// DDR4 and LPDDR4 are Fig. 4c's presets (internal/experiments),
	// which no platform simulates.
	ddr4 := config.DRAM{Controllers: 6, TotalGBps: 256, ReadLat: config.NsToTicks(170), WriteLat: config.NsToTicks(170), AccessGran: 128}
	lpddr4 := config.DRAM{Controllers: 4, TotalGBps: 44.8, ReadLat: config.NsToTicks(220), WriteLat: config.NsToTicks(220), AccessGran: 128}
	for _, tc := range []struct {
		name string
		kind config.DRAM
	}{{"GDDR5", c.GDDR5}, {"DDR4", ddr4}, {"LPDDR4", lpddr4}, {"Optane", c.Optane}} {
		kind := tc.kind
		eng := sim.NewEngine()
		d := New(eng, kind)
		const n = 16000
		done := 0
		for i := 0; i < n; i++ {
			d.Access(&mem.Request{Addr: uint64(i) * uint64(kind.AccessGran), Size: kind.AccessGran,
				Done: sim.Func(func() { done++ })})
		}
		eng.Run()
		if done != n {
			t.Fatalf("%s: done = %d", tc.name, done)
		}
		// Tick quantization of the port widths costs a few percent; the
		// saturation point must still sit near the configured aggregate.
		got := d.DeliveredGBps(eng.Now())
		if got < kind.TotalGBps*0.8 || got > kind.TotalGBps*1.05 {
			t.Errorf("%s: delivered %.1f GB/s, configured %.1f", tc.name, got, kind.TotalGBps)
		}
	}
}

func TestOptaneGranularityPenalty(t *testing.T) {
	// 128 B requests on 256 B-granularity Optane waste half the device
	// bandwidth: delivered *useful* data rate is about half of a 256 B
	// access pattern.
	run := func(reqSize int) float64 {
		eng := sim.NewEngine()
		d := New(eng, config.Default().Optane)
		const n = 2000
		for i := 0; i < n; i++ {
			d.Access(&mem.Request{Addr: uint64(i) * 256, Size: reqSize, Done: sim.Func(func() {})})
		}
		eng.Run()
		useful := float64(n*reqSize) / float64(eng.Now())
		return config.BytesPerTickToGBps(useful)
	}
	small, full := run(128), run(256)
	if ratio := small / full; ratio < 0.4 || ratio > 0.6 {
		t.Errorf("128B/256B useful-bandwidth ratio = %.2f, want ~0.5", ratio)
	}
}

func TestOptaneWriteSlowerThanRead(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, config.Default().Optane)
	var rAt, wAt sim.Tick
	d.Access(&mem.Request{Addr: 0, Size: 256, Done: sim.Func(func() { rAt = eng.Now() })})
	eng.Run()
	e2 := sim.NewEngine()
	d2 := New(e2, config.Default().Optane)
	d2.Access(&mem.Request{Addr: 0, Size: 256, Write: true, Done: sim.Func(func() { wAt = e2.Now() })})
	e2.Run()
	if wAt <= rAt {
		t.Errorf("Optane write (%d) must be slower than read (%d): tRP dominates", wAt, rAt)
	}
}

func TestControllerInterleaving(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default().GDDR5
	d := New(eng, cfg)
	// Two accesses to different controllers finish together; to the
	// same controller they serialize on bandwidth.
	var a, b sim.Tick
	d.Access(&mem.Request{Addr: 0, Size: 128, Done: sim.Func(func() { a = eng.Now() })})
	d.Access(&mem.Request{Addr: 128, Size: 128, Done: sim.Func(func() { b = eng.Now() })})
	eng.Run()
	if a != b {
		t.Errorf("different controllers should overlap: %d vs %d", a, b)
	}
}
