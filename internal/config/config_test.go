package config

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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

	if c.GPU.SMs != 16 {
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

	// GPU DRAM out-streams Optane (Fig. 4c's DDR4 and LPDDR4 sit
	// between them; experiments' Fig. 4c check holds that order).
	if c.GDDR5.TotalGBps <= c.Optane.TotalGBps {
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

// TestValidateRanges walks the declared ranges: each numeric field
// set just below its minimum or just above its maximum, a float set to
// NaN and a power-of-two field set to another value inside its range
// is an error naming the field's path, and so is each table size above
// its cap. Table I validates (without allocating:
// platform.TestValidateConfigAllocFree).
func TestValidateRanges(t *testing.T) {
	type leaf struct {
		path string
		f    *field
		v    func(*Config) reflect.Value
	}
	var leaves []leaf
	var walk func(p *structPlan, get func(*Config) reflect.Value)
	walk = func(p *structPlan, get func(*Config) reflect.Value) {
		for i := range p.fields {
			f := &p.fields[i]
			v := func(c *Config) reflect.Value { return get(c).Field(f.index) }
			switch f.kind {
			case reflect.Struct:
				walk(f.sub, v)
			case reflect.Bool:
			default:
				leaves = append(leaves, leaf{p.path + f.name, f, v})
			}
		}
	}
	walk(plan, func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem() })
	if len(leaves) != 85 {
		t.Errorf("%d numeric fields carry a range, want all 85", len(leaves))
	}
	check := func(c Config, path, what string) {
		t.Helper()
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "config: "+path+" ") {
			t.Errorf("%s %s: Validate() = %v, want an error naming %s", path, what, err, path)
		}
	}
	for _, l := range leaves {
		c := Default()
		if l.f.kind == reflect.Float64 {
			for _, x := range []float64{math.Nextafter(l.f.lo, math.Inf(-1)), math.Nextafter(l.f.hi, math.Inf(1)), math.NaN()} {
				l.v(&c).SetFloat(x)
				check(c, l.path, fmt.Sprint(x))
			}
			continue
		}
		bad := []int64{int64(l.f.lo) - 1, int64(l.f.hi) + 1}
		if l.f.pow2 {
			bad = append(bad, int64(l.f.lo)+1)
		}
		for _, n := range bad {
			l.v(&c).SetInt(n)
			check(c, l.path, fmt.Sprint(n))
		}
	}

	c := Default()
	c.Flash.PageBytes = 4000
	if err, want := c.Validate(), "config: Flash.PageBytes 4000, want a power of two in [128, 8192]"; err == nil || err.Error() != want {
		t.Errorf("PageBytes 4000: Validate() = %v, want %q", err, want)
	}
	for path, mutate := range map[string]func(*Config){
		"Flash.Planes()":    func(c *Config) { c.Flash.Channels, c.Flash.PlanesPerDie = 256, 64 },
		"L1.Lines()":        func(c *Config) { c.L1.Sets, c.L1.Ways = 1<<19, 4 },
		"L2STT.Lines()":     func(c *Config) { c.L2STT.Banks = 64 },
		"Flash.BlocksPerPl": func(c *Config) { c.Flash.BlocksPerPl = c.FTL.DataBlocksPerLog },
	} {
		c := Default()
		mutate(&c)
		check(c, path, "above its cap")
	}

	if c := Default(); c.Validate() != nil {
		t.Errorf("Table I: %v", c.Validate())
	}
}

// TestCheckLatencies: every sim.Tick field, found by walking Config,
// admits 0 and maxLatency and rejects -1 and maxLatency+1 with an
// error naming the field and its range. Every platform refuses such a
// configuration through platform.RunApps
// (TestRunMixRejectsNegativeLatencies).
func TestCheckLatencies(t *testing.T) {
	c := Default()
	type latency struct {
		path string
		v    reflect.Value
	}
	var lats []latency
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := range v.NumField() {
			f, path := v.Field(i), prefix+v.Type().Field(i).Name
			switch {
			case f.Type() == reflect.TypeFor[sim.Tick]():
				lats = append(lats, latency{path, f})
			case f.Kind() == reflect.Struct:
				walk(f, path+".")
			}
		}
	}
	walk(reflect.ValueOf(&c).Elem(), "")
	if len(lats) != 22 {
		t.Errorf("the walk over Config finds %d latencies, want 22", len(lats))
	}
	for _, l := range lats {
		old := l.v.Int()
		for _, n := range []int64{0, maxLatency} {
			l.v.SetInt(n)
			if err := c.Validate(); err != nil {
				t.Errorf("%s = %d: %v", l.path, n, err)
			}
		}
		for _, n := range []int64{-1, maxLatency + 1} {
			l.v.SetInt(n)
			want := fmt.Sprintf("config: %s %d, want [0, %d]", l.path, n, maxLatency)
			if err := c.Validate(); err == nil || err.Error() != want {
				t.Errorf("%s = %d: err = %v, want %q", l.path, n, err, want)
			}
		}
		l.v.SetInt(old)
	}
}
