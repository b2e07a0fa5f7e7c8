package config

import (
	"testing"

	"zng/internal/sim"
)

func TestNsToTicks(t *testing.T) {
	cases := []struct {
		ns   float64
		want sim.Tick
	}{
		{0, 0},
		{1, 2},       // 1.2 ticks rounds up
		{10, 12},     // exact
		{3000, 3600}, // tR = 3 us
		{100000, 120000},
	}
	for _, c := range cases {
		if got := NsToTicks(c.ns); got != c.want {
			t.Errorf("NsToTicks(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestBandwidthConversionRoundTrip(t *testing.T) {
	for _, gbps := range []float64{1.6, 6.4, 11.2, 39, 484} {
		w := GBpsToBytesPerTick(gbps)
		if back := BytesPerTickToGBps(w); back < gbps*0.999 || back > gbps*1.001 {
			t.Errorf("round trip %v -> %v", gbps, back)
		}
	}
}

func TestTableIConfiguration(t *testing.T) {
	c := Default()

	if c.GPU.SMs != 16 || c.GPU.MaxWarps != 80 {
		t.Errorf("GPU config mismatch: %+v", c.GPU)
	}
	if got := c.L1.SizeBytes(); got != 48<<10 {
		t.Errorf("L1 size = %d, want 48 KB", got)
	}
	if got := c.L2SRAM.SizeBytes(); got != 6<<20 {
		t.Errorf("L2 SRAM size = %d, want 6 MB", got)
	}
	if got := c.L2STT.SizeBytes(); got != 24<<20 {
		t.Errorf("L2 STT size = %d, want 24 MB", got)
	}
	if c.L2STT.WriteLat != 5*c.L2STT.ReadLat {
		t.Errorf("STT-MRAM write latency should be 5x read: %d vs %d", c.L2STT.WriteLat, c.L2STT.ReadLat)
	}
	if !c.L2STT.ReadOnly {
		t.Error("ZnG L2 must be read-only")
	}

	if got := c.Flash.Planes(); got != 1024 {
		t.Errorf("planes = %d, want 16*1*8*8 = 1024", got)
	}
	if c.Flash.ReadLat != UsToTicks(3) || c.Flash.ProgramLat != UsToTicks(100) {
		t.Errorf("Z-NAND latencies: read %d, program %d", c.Flash.ReadLat, c.Flash.ProgramLat)
	}
	if c.Flash.ProgramLat <= c.Flash.ReadLat {
		t.Error("program must be slower than read")
	}
	if c.Flash.PECycles != 100_000 {
		t.Errorf("P/E cycles = %d", c.Flash.PECycles)
	}
	// 800 GB-class drive: Table I parameters give 1.5 TB raw; ensure at
	// least the nominal 800 GB is present.
	if got := c.Flash.CapacityBytes(); got < 800<<30 {
		t.Errorf("capacity = %d, want >= 800 GB", got)
	}
	if c.Flash.MeshLinkGBps != 4*c.Flash.ChannelGBps {
		t.Errorf("mesh link (8 B) should be wider than legacy channel: %v vs %v",
			c.Flash.MeshLinkGBps, c.Flash.ChannelGBps)
	}

	// Fig. 1b calibration: accumulated channel bandwidth 25.6 GB/s.
	if acc := float64(c.Flash.Channels) * c.Flash.ChannelGBps; acc != 25.6 {
		t.Errorf("accumulated channel bandwidth = %v, want 25.6", acc)
	}

	// Fig. 4c ordering: GDDR5 > DDR4 > LPDDR4 > Optane.
	if !(c.GDDR5.TotalGBps > c.DDR4.TotalGBps &&
		c.DDR4.TotalGBps > c.LPDDR4.TotalGBps &&
		c.LPDDR4.TotalGBps > c.Optane.TotalGBps) {
		t.Error("DRAM bandwidth ordering violated")
	}

	// Optane write (tRP-bound) must exceed read (tRCD+tCL).
	if c.Optane.WriteLat <= c.Optane.ReadLat {
		t.Error("Optane write latency must exceed read latency")
	}

	// Prefetch defaults from Section IV-B / V-D.
	if c.Prefetch.TableEntries != 512 || c.Prefetch.CutoffThresh != 12 {
		t.Errorf("prefetch table: %+v", c.Prefetch)
	}
	if c.Prefetch.HighWaste != 0.3 || c.Prefetch.LowWaste != 0.05 {
		t.Errorf("waste thresholds: %+v", c.Prefetch)
	}
}

func TestRegCacheNetString(t *testing.T) {
	if NiF.String() != "NiF" || SWnet.String() != "SWnet" || FCnet.String() != "FCnet" {
		t.Error("RegCacheNet.String mismatch")
	}
	if RegCacheNet(99).String() != "unknown" {
		t.Error("an unknown net must stringify")
	}
}

func TestEngineThroughputCalibration(t *testing.T) {
	// The SSD engine must process 128 B requests at ~4.8 GB/s (Fig. 1b):
	// cores / latency * 128 B.
	c := Default()
	perSec := float64(c.Engine.Cores) / (TicksToNs(c.Engine.FTLLatPerReq) * 1e-9)
	gbps := perSec * 128 / 1e9
	if gbps < 4.2 || gbps > 5.4 {
		t.Errorf("engine throughput = %.2f GB/s, want ~4.8", gbps)
	}
}

func TestZNANDDensityConstants(t *testing.T) {
	c := Default()
	if ZNANDPackageDensityGB != 64*c.GDDR5.PkgCapacityGB {
		t.Error("Z-NAND density must be 64x GDDR5 (Fig. 3a)")
	}
	if ZNANDPowerWPerGB >= c.LPDDR4.PowerWPerGB {
		t.Error("Z-NAND must be the most power-efficient medium (Fig. 3b)")
	}
}

// TestCheckLatencies: zero is a valid latency and -1 is not, and a
// valid configuration is checked without allocating. Every sim.Tick
// field is covered through platform.RunApps
// (TestRunMixRejectsNegativeLatencies).
func TestCheckLatencies(t *testing.T) {
	c := Default()
	c.Flash.MeshHopLat = 0
	if err := c.CheckLatencies(); err != nil {
		t.Errorf("Flash.MeshHopLat = 0: %v", err)
	}
	c.Flash.MeshHopLat = -1
	if err, want := c.CheckLatencies(), "config: Flash.MeshHopLat -1, want >= 0"; err == nil || err.Error() != want {
		t.Errorf("Flash.MeshHopLat = -1: err = %v, want %q", err, want)
	}
	c = Default()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := c.CheckLatencies(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CheckLatencies allocates %.0f objects on a valid config, want 0", allocs)
	}
}
