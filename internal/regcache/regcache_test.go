package regcache

import (
	"runtime"
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/noc"
	"zng/internal/rng"
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

// linePinner pins every line except each page's last, so the pinned
// line count differs from 32 per spilled page.
type linePinner struct{ lines []uint64 }

func (p *linePinner) PinDirty(addr uint64) bool {
	p.lines = append(p.lines, addr)
	return addr%4096 != 4096-128
}

// TestRegisterFileDifferential drives the LRU-indexed register file
// and the stamp-based reference (stampref_test.go) on twin rigs with
// one random store stream, in both modes and over every interconnect.
// Stores overlap their evictions' drains, the thrashing checker pins
// pages until PinLines runs out, and random reads probe ReadCheck.
// After every store the twins must hold the same pages with the same
// sectors and register planes, so they evict the same victims in the
// same order; every counter, store completion tick, pinned line and
// final page location must match too.
func TestRegisterFileDifferential(t *testing.T) {
	for _, direct := range []bool{false, true} {
		for _, net := range []config.RegCacheNet{config.NiF, config.SWnet, config.FCnet} {
			name := net.String() + "/grouped"
			if direct {
				name = net.String() + "/direct"
			}
			t.Run(name, func(t *testing.T) { registerFileDifferential(t, direct, net) })
		}
	}
}

func registerFileDifferential(t *testing.T, direct bool, net config.RegCacheNet) {
	type twin struct {
		eng   *sim.Engine
		bb    *flash.Backbone
		split *ftl.Split
		mesh  *noc.Mesh
		pins  *linePinner
		done  []sim.Tick
	}
	build := func() *twin {
		eng := sim.NewEngine()
		fc := config.Default().Flash
		fc.Channels, fc.DiesPerPkg, fc.PlanesPerDie = 2, 1, 4
		fc.BlocksPerPl, fc.PagesPerBlock, fc.RegsPerPlane = 64, 8, 2
		fc.ReadLat, fc.ProgramLat, fc.EraseLat = 30, 1000, 3000
		bb := flash.New(eng, fc)
		return &twin{eng: eng, bb: bb, split: ftl.NewSplit(eng, bb, config.Default().FTL),
			mesh: noc.NewMesh(eng, 2, 8, 1), pins: &linePinner{}}
	}
	rc := config.Default().RegCache
	rc.Net, rc.ThrashWindow, rc.PinLines = net, 16, 5*32
	a, b := build(), build()
	got := New(a.eng, rc, a.bb, a.split, Options{PerPlaneDirect: direct, Mesh: a.mesh, L2: a.pins})
	want := newStampCache(b.eng, rc, b.bb, b.split, Options{PerPlaneDirect: direct, Mesh: b.mesh, L2: b.pins})

	const pages = 48 // three times the 16 registers
	pageBytes := uint64(a.bb.Cfg.PageBytes)
	vaOf := func(r *rng.RNG) uint64 {
		page := r.Uint64n(pages)
		if r.Intn(2) == 0 {
			page %= 4 // a hot set keeps some pages resident
		}
		return page*pageBytes + r.Uint64n(pageBytes/SectorBytes)*SectorBytes
	}
	held := func(vp uint64) bool { _, ok := got.regs.Get(vp); return ok }
	var gotVictims []uint64
	seed := uint64(net) * 2
	if direct {
		seed++
	}
	r := rng.New(seed)
	for i := 0; i < 3000; i++ {
		va := vaOf(&r)
		before := make([]bool, pages)
		for vp := range before {
			before[vp] = held(uint64(vp))
		}
		for _, tw := range []*twin{a, b} {
			tw.done = append(tw.done, -1)
		}
		got.Write(va, sim.Func(func() { a.done[i] = a.eng.Now() }), nil)
		want.Write(va, sim.Func(func() { b.done[i] = b.eng.Now() }), nil)
		for vp := range before {
			if before[vp] && !held(uint64(vp)) {
				gotVictims = append(gotVictims, uint64(vp))
			}
		}
		if got.Hits.Value() != want.Hits.Value() || got.Allocs.Value() != want.Allocs.Value() ||
			got.Evictions.Value() != want.Evictions.Value() {
			t.Fatalf("store %d (va %#x): hits/allocs/evictions %d/%d/%d, reference %d/%d/%d", i, va,
				got.Hits.Value(), got.Allocs.Value(), got.Evictions.Value(),
				want.Hits.Value(), want.Allocs.Value(), want.Evictions.Value())
		}
		if got.DirtyPages() != want.DirtyPages() {
			t.Fatalf("store %d: %d dirty pages, reference %d", i, got.DirtyPages(), want.DirtyPages())
		}
		for vp := uint64(0); vp < pages; vp++ {
			p, _ := want.pkgOf(vp * pageBytes)
			e := p.entry(vp)
			slot, ok := got.regs.Get(vp)
			if ok != (e != nil) {
				t.Fatalf("store %d: page %d held %v, reference %v", i, vp, ok, e != nil)
			}
			if ok && (got.regs.Val(slot).sectors != e.sectors || int(got.regs.Val(slot).plane) != e.regPlane) {
				t.Fatalf("store %d: page %d sectors %#x in plane %d's register, reference %#x in %d", i, vp,
					got.regs.Val(slot).sectors, got.regs.Val(slot).plane, e.sectors, e.regPlane)
			}
		}
		if probe := vaOf(&r); got.ReadCheck(probe) != want.ReadCheck(probe) {
			t.Fatalf("store %d: ReadCheck(%#x) disagrees with the reference", i, probe)
		}
		if d := sim.Tick(r.Uint64n(2000)); r.Intn(4) == 0 {
			a.eng.Run()
			b.eng.Run()
		} else {
			a.eng.RunFor(d)
			b.eng.RunFor(d)
		}
	}
	a.eng.Run()
	b.eng.Run()

	if len(gotVictims) != len(want.victims) {
		t.Fatalf("%d victims, reference %d", len(gotVictims), len(want.victims))
	}
	for i := range gotVictims {
		if gotVictims[i] != want.victims[i] {
			t.Fatalf("victim %d is page %d, reference %d", i, gotVictims[i], want.victims[i])
		}
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"evictions", got.Evictions.Value(), want.Evictions.Value()},
		{"programs", got.Programs.Value(), want.Programs.Value()},
		{"RMW reads", got.RMWReads.Value(), want.RMWReads.Value()},
		{"migrations", got.Migrations.Value(), want.Migrations.Value()},
		{"pinned pages", got.PinnedPages.Value(), want.PinnedPages.Value()},
		{"read hits", got.ReadHits.Value(), want.ReadHits.Value()},
		{"pinned lines", uint64(got.pinnedLines), uint64(want.pinnedLines)},
		{"mesh bytes", a.mesh.Bytes.Value(), b.mesh.Bytes.Value()},
		{"array programs", a.bb.ArrayPrograms.Value(), b.bb.ArrayPrograms.Value()},
		{"final tick", uint64(a.eng.Now()), uint64(b.eng.Now())},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, reference %d", c.name, c.got, c.want)
		}
	}
	for i := range a.done {
		if a.done[i] < 0 {
			t.Fatalf("store %d never completed", i)
		}
		if a.done[i] != b.done[i] {
			t.Fatalf("store %d completed at tick %d, reference %d", i, a.done[i], b.done[i])
		}
	}
	if len(a.pins.lines) != len(b.pins.lines) {
		t.Fatalf("%d lines offered to L2, reference %d", len(a.pins.lines), len(b.pins.lines))
	}
	for i := range a.pins.lines {
		if a.pins.lines[i] != b.pins.lines[i] {
			t.Fatalf("pinned line %d is %#x, reference %#x", i, a.pins.lines[i], b.pins.lines[i])
		}
	}
	for vp := uint64(0); vp < pages; vp++ {
		if g, w := a.split.ReadLoc(vp*pageBytes), b.split.ReadLoc(vp*pageBytes); g != w {
			t.Fatalf("page %d reads from %+v, reference %+v", vp, g, w)
		}
	}
	if got.Evictions.Value() == 0 || got.PinnedPages.Value() == 0 {
		t.Fatalf("stream too gentle: %d evictions, %d pinned pages", got.Evictions.Value(), got.PinnedPages.Value())
	}
	if !direct && got.Migrations.Value() == 0 {
		t.Fatal("grouped stream never migrated a page")
	}
}

// TestPinAdmissionCountsPageLines: the thrashing checker spills a page
// into L2 only when all of the page's lines fit under PinLines. An
// 8 KiB page is 64 lines, more than a 40-line budget, so every
// eviction must program flash and nothing may be pinned.
func TestPinAdmissionCountsPageLines(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels, fc.DiesPerPkg, fc.PlanesPerDie = 2, 1, 2
	fc.BlocksPerPl, fc.PagesPerBlock, fc.RegsPerPlane, fc.PageBytes = 64, 8, 1, 8192
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 30, 1000, 3000
	bb := flash.New(eng, fc)
	rc := config.Default().RegCache
	rc.ThrashWindow, rc.PinLines = 16, 40
	sink := &pinRecorder{}
	c := New(eng, rc, bb, ftl.NewSplit(eng, bb, config.Default().FTL), Options{L2: sink})
	stride := uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes)
	for i := 0; i < 64; i++ {
		c.Write(uint64(i)*stride, nil, nil)
		eng.Run()
	}
	if !c.Thrashing() {
		t.Fatal("thrash checker never tripped on a 100% miss stream")
	}
	if c.pinnedLines > rc.PinLines || len(sink.lines) > rc.PinLines {
		t.Errorf("%d lines pinned (%d offered) under a %d-line budget", c.pinnedLines, len(sink.lines), rc.PinLines)
	}
	if c.Evictions.Value() == 0 || c.Programs.Value() != c.Evictions.Value() {
		t.Errorf("%d of %d evictions programmed flash, want all", c.Programs.Value(), c.Evictions.Value())
	}
}

// TestRegisterFileFootprint: the Table I grouped register file, 8,192
// registers of 8 per plane, allocates host memory for the pages written
// to it, not for its registers: a fixed base, then a bounded amount per
// page. Preallocating every package's registers cost about 0.6 MB
// before the first store. Each figure is the least of five trials, so
// an allocation elsewhere in the process cannot fail the test.
func TestRegisterFileFootprint(t *testing.T) {
	const base, perPage = 4 << 10, 160
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.RegsPerPlane = 8
	bb := flash.New(eng, fc)
	split := ftl.NewSplit(eng, bb, config.Default().FTL)
	eng.Schedule(0, nil, nil) // the engine's queue is not the register file's
	eng.Run()

	allocated := func(pages uint64) uint64 {
		least := ^uint64(0)
		for trial := 0; trial < 5; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c := New(eng, config.Default().RegCache, bb, split, Options{})
			for vp := uint64(0); vp < pages; vp++ {
				c.Write(vp*uint64(fc.PageBytes), nil, nil)
				eng.Run()
			}
			runtime.ReadMemStats(&after)
			if c.DirtyPages() != int(pages) || c.Evictions.Value() != 0 {
				t.Fatalf("%d dirty pages and %d evictions, want %d and 0", c.DirtyPages(), c.Evictions.Value(), pages)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const pages = 512 // one per plane of the first eight packages
	if empty := allocated(0); empty > base {
		t.Errorf("an empty register file allocates %d B, want at most %d", empty, base)
	}
	if written, limit := allocated(pages), uint64(base+pages*perPage); written > limit {
		t.Errorf("%d written pages allocate %d B, want at most %d (%d B base + %d B a page)", pages, written, limit, base, perPage)
	}
}
