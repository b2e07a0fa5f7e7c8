package regcache

import (
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/noc"
	"zng/internal/sim"
)

func testRig(opt Options, regsPerPlane int) (*sim.Engine, *Cache, *flash.Backbone, *ftl.Split) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels = 2
	fc.DiesPerPkg = 1
	fc.PlanesPerDie = 2
	fc.BlocksPerPl = 64
	fc.PagesPerBlock = 8
	fc.RegsPerPlane = regsPerPlane
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 30, 1000, 3000
	bb := flash.New(eng, fc)
	split := ftl.NewSplit(eng, bb, config.Default().FTL)
	rc := config.Default().RegCache
	rc.ThrashWindow = 16
	if opt.Mesh == nil && rc.Net == config.SWnet {
		opt.Mesh = noc.NewMesh(eng, 2, 8, 1)
	}
	return eng, New(eng, rc, bb, split, opt), bb, split
}

func TestWriteRedundancyAbsorbed(t *testing.T) {
	eng, c, bb, _ := testRig(Options{}, 8)
	done := 0
	// 65 stores to the same page (Fig. 5c redundancy): one allocation,
	// zero programs while resident.
	for i := 0; i < 65; i++ {
		c.Write(uint64(i%4)*SectorBytes, sim.Func(func() { done++ }), nil)
		eng.Run()
	}
	if done != 65 {
		t.Fatalf("done = %d", done)
	}
	if c.Hits.Value() != 64 || c.Allocs.Value() != 1 {
		t.Errorf("hits/allocs = %d/%d, want 64/1", c.Hits.Value(), c.Allocs.Value())
	}
	if bb.ArrayPrograms.Value() != 0 {
		t.Errorf("programs = %d, want 0 (absorbed)", bb.ArrayPrograms.Value())
	}
	if c.DirtyPages() != 1 {
		t.Errorf("dirty pages = %d", c.DirtyPages())
	}
}

func TestEvictionProgramsFlash(t *testing.T) {
	eng, c, bb, _ := testRig(Options{}, 1)
	// Package 0 capacity = planes(2) * regs(1) = 2 entries. Pages in
	// the same plane: stride by planes*blockBytes.
	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	done := 0
	for i := 0; i < 3; i++ {
		c.Write(uint64(i)*stride, sim.Func(func() { done++ }), nil)
		eng.Run()
	}
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if c.Evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions.Value())
	}
	if bb.ArrayPrograms.Value() == 0 {
		t.Error("eviction must program the array")
	}
	// Partial page coverage forces a read-modify-write.
	if c.RMWReads.Value() != 1 {
		t.Errorf("RMW reads = %d, want 1", c.RMWReads.Value())
	}
}

func TestFullCoverageSkipsRMW(t *testing.T) {
	eng, c, bb, _ := testRig(Options{}, 1)
	sectors := bb.Cfg.PageBytes / SectorBytes
	// Cover every sector of page 0.
	for s := 0; s < sectors; s++ {
		c.Write(uint64(s)*SectorBytes, nil, nil)
		eng.Run()
	}
	// Force eviction with same-plane pages.
	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	c.Write(stride, nil, nil)
	c.Write(2*stride, nil, nil)
	eng.Run()
	if c.Evictions.Value() == 0 {
		t.Fatal("no eviction")
	}
	if c.RMWReads.Value() != 0 {
		t.Errorf("fully covered page still RMW-read %d times", c.RMWReads.Value())
	}
}

func TestReadCheckSeesNewestSectors(t *testing.T) {
	eng, c, _, _ := testRig(Options{}, 8)
	c.Write(0, nil, nil)
	eng.Run()
	if !c.ReadCheck(0) {
		t.Error("written sector must hit the register")
	}
	if c.ReadCheck(SectorBytes) {
		t.Error("unwritten sector of the same page must miss")
	}
	if c.ReadCheck(1 << 30) {
		t.Error("unrelated page must miss")
	}
	if c.ReadHits.Value() != 1 {
		t.Errorf("read hits = %d", c.ReadHits.Value())
	}
}

func TestBaseModePerPlaneConflict(t *testing.T) {
	eng, c, bb, _ := testRig(Options{PerPlaneDirect: true}, 1)
	// Two different pages homed on the same plane: the second
	// allocation evicts the first even though the package has other
	// free registers (no cross-plane grouping).
	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	done := 0
	c.Write(0, sim.Func(func() { done++ }), nil)
	eng.Run()
	c.Write(stride, sim.Func(func() { done++ }), nil)
	eng.Run()
	if c.Evictions.Value() != 1 {
		t.Errorf("base-mode conflict evictions = %d, want 1", c.Evictions.Value())
	}
	if done != 2 {
		t.Errorf("done = %d", done)
	}
	// Grouped mode with the same traffic does not evict.
	eng2, c2, bb2, _ := testRig(Options{}, 2)
	stride2 := uint64(bb2.Planes()) * uint64(bb2.Cfg.PageBytes)
	c2.Write(0, nil, nil)
	eng2.Run()
	c2.Write(stride2, nil, nil)
	eng2.Run()
	if c2.Evictions.Value() != 0 {
		t.Errorf("grouped mode evicted %d, want 0", c2.Evictions.Value())
	}
}

func TestMigrationCounting(t *testing.T) {
	// Grouped mode allocates registers round-robin; evictions whose
	// register plane differs from the target plane must migrate.
	eng, c, bb, _ := testRig(Options{}, 1)
	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	// Fill capacity (2) then force evictions; all pages target plane 0.
	for i := 0; i < 6; i++ {
		c.Write(uint64(i)*stride, nil, nil)
		eng.Run()
	}
	if c.Evictions.Value() < 3 {
		t.Fatalf("evictions = %d", c.Evictions.Value())
	}
	if c.Migrations.Value() == 0 {
		t.Error("round-robin register allocation must produce migrations")
	}
}

func TestSWnetConsumesMeshBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels = 2
	fc.DiesPerPkg = 1
	fc.PlanesPerDie = 2
	fc.BlocksPerPl = 64
	fc.PagesPerBlock = 8
	fc.RegsPerPlane = 1
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 30, 1000, 3000
	bb := flash.New(eng, fc)
	split := ftl.NewSplit(eng, bb, config.Default().FTL)
	mesh := noc.NewMesh(eng, 2, 8, 1)
	rc := config.Default().RegCache
	rc.Net = config.SWnet
	c := New(eng, rc, bb, split, Options{Mesh: mesh})

	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	before := mesh.Bytes.Value()
	for i := 0; i < 6; i++ {
		c.Write(uint64(i)*stride, nil, nil)
		eng.Run()
	}
	if c.Migrations.Value() == 0 {
		t.Fatal("no migrations")
	}
	if mesh.Bytes.Value() == before {
		t.Error("SWnet migrations must move bytes over the flash network")
	}
}

func TestNiFKeepsMeshClean(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels = 2
	fc.DiesPerPkg = 1
	fc.PlanesPerDie = 2
	fc.BlocksPerPl = 64
	fc.PagesPerBlock = 8
	fc.RegsPerPlane = 1
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 30, 1000, 3000
	bb := flash.New(eng, fc)
	split := ftl.NewSplit(eng, bb, config.Default().FTL)
	mesh := noc.NewMesh(eng, 2, 8, 1)
	rc := config.Default().RegCache
	rc.Net = config.NiF
	c := New(eng, rc, bb, split, Options{Mesh: mesh})

	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	for i := 0; i < 6; i++ {
		c.Write(uint64(i)*stride, nil, nil)
		eng.Run()
	}
	if c.Migrations.Value() == 0 {
		t.Fatal("no migrations")
	}
	if mesh.Bytes.Value() != 0 {
		t.Error("NiF migrations must stay off the flash network")
	}
}

type pinRecorder struct{ lines []uint64 }

func (p *pinRecorder) PinDirty(addr uint64) bool { p.lines = append(p.lines, addr); return true }

func TestThrashingPinsToL2(t *testing.T) {
	sink := &pinRecorder{}
	eng, c, bb, _ := testRig(Options{L2: sink}, 1)
	// Stream allocations (every write a miss) to trip the thrash
	// checker, then keep going: evictions should divert to L2.
	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	for i := 0; i < 64; i++ {
		c.Write(uint64(i)*stride, nil, nil)
		eng.Run()
	}
	if !c.Thrashing() {
		t.Fatal("thrash checker never tripped on a 100% miss stream")
	}
	if c.PinnedPages.Value() == 0 {
		t.Error("no pages pinned to L2 under thrashing")
	}
	if len(sink.lines) == 0 {
		t.Error("pin sink never called")
	}
}

func TestNoThrashingOnHitStream(t *testing.T) {
	sink := &pinRecorder{}
	eng, c, _, _ := testRig(Options{L2: sink}, 8)
	for i := 0; i < 64; i++ {
		c.Write(uint64(i%4)*SectorBytes, nil, nil) // one hot page
		eng.Run()
	}
	if c.Thrashing() {
		t.Error("hit-dominated stream must not trip the thrash checker")
	}
	if c.PinnedPages.Value() != 0 {
		t.Errorf("pinned %d pages without thrashing", c.PinnedPages.Value())
	}
}

func TestProgramsReducedVsWrites(t *testing.T) {
	// End-to-end sanity for the write optimization: with redundancy R,
	// programs << writes.
	eng, c, bb, _ := testRig(Options{}, 8)
	writes := 0
	for rep := 0; rep < 50; rep++ {
		for p := 0; p < 4; p++ {
			c.Write(uint64(p)*4096+uint64(rep%32)*SectorBytes, nil, nil)
			writes++
		}
	}
	eng.Run()
	if progs := bb.ArrayPrograms.Value(); progs*10 > uint64(writes) {
		t.Errorf("programs = %d for %d writes; register cache not absorbing", progs, writes)
	}
}
