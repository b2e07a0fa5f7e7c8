package ftl

import (
	"testing"
	"testing/quick"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/sim"
)

func smallBB(eng *sim.Engine) (*flash.Backbone, config.FTL) {
	fc := config.Default().Flash
	fc.Channels = 2
	fc.DiesPerPkg = 2
	fc.PlanesPerDie = 2
	fc.BlocksPerPl = 32
	fc.PagesPerBlock = 8
	// Shrink latencies so tests run fast while keeping ratios.
	fc.ReadLat = 30
	fc.ProgramLat = 1000
	fc.EraseLat = 3000
	cfg := config.Default().FTL
	cfg.DataBlocksPerLog = 2
	return flash.New(eng, fc), cfg
}

func TestSplitReadLocStableAndPreloaded(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	s := NewSplit(eng, bb, cfg)
	l1 := s.ReadLoc(0x1000)
	l2 := s.ReadLoc(0x1000)
	if l1 != l2 {
		t.Fatalf("ReadLoc not stable: %+v vs %+v", l1, l2)
	}
	if l1.FromLog {
		t.Error("never-written page must come from the data block")
	}
	// The data block must be preloaded (fully valid).
	if got := bb.Plane(l1.Plane).Block(l1.Block).ValidCount(); got != bb.Cfg.PagesPerBlock {
		t.Errorf("preloaded valid count = %d", got)
	}
}

func TestSplitVBlockStriping(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	s := NewSplit(eng, bb, cfg)
	// Superpage layout: consecutive logical pages stripe across planes.
	p0 := s.ReadLoc(0).Plane
	p1 := s.ReadLoc(uint64(bb.Cfg.PageBytes)).Plane
	if p0 == p1 {
		t.Error("consecutive pages must stripe across planes")
	}
	// Pages planes-apart share a plane and (within a block span) a block.
	l0 := s.ReadLoc(0)
	l8 := s.ReadLoc(uint64(bb.Planes()) * uint64(bb.Cfg.PageBytes))
	if l0.Plane != l8.Plane {
		t.Error("stride-by-planes pages must share a plane")
	}
	if l0.Block != l8.Block || l8.Page != l0.Page+1 {
		t.Errorf("in-plane pages should pack a block: %+v then %+v", l0, l8)
	}
}

func TestSplitWriteRedirectsToLog(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	s := NewSplit(eng, bb, cfg)
	va := uint64(0x3000)
	before := s.ReadLoc(va)
	done := false
	s.WritePage(va, sim.Func(func() { done = true }), nil)
	eng.Run()
	if !done {
		t.Fatal("write did not complete")
	}
	after := s.ReadLoc(va)
	if !after.FromLog {
		t.Fatalf("read after write must hit the log: %+v", after)
	}
	if after.Plane != before.Plane {
		t.Errorf("log block must live in the vblock's home plane: %d vs %d", after.Plane, before.Plane)
	}
	// Old data page is now invalid.
	if bb.Plane(before.Plane).Block(before.Block).Valid(before.Page) {
		t.Error("superseded data page still marked valid")
	}
	if s.LogPrograms.Value() != 1 {
		t.Errorf("log programs = %d", s.LogPrograms.Value())
	}
}

func TestSplitRewriteSupersedesLogSlot(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	s := NewSplit(eng, bb, cfg)
	va := uint64(0x5000)
	s.WritePage(va, nil, nil)
	eng.Run()
	first := s.ReadLoc(va)
	s.WritePage(va, nil, nil)
	eng.Run()
	second := s.ReadLoc(va)
	if first == second {
		t.Error("rewrite must move to a new log slot")
	}
	if !second.FromLog || second.Page <= first.Page {
		t.Errorf("in-order log slots: first %d then %d", first.Page, second.Page)
	}
	if bb.Plane(first.Plane).Block(first.Block).Valid(first.Page) {
		t.Error("old log slot should be invalid")
	}
}

func TestSplitMergeOnFullLog(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	s := NewSplit(eng, bb, cfg)
	va := uint64(0x7000)
	// PagesPerBlock = 8: nine writes force a merge.
	done := 0
	for i := 0; i < 9; i++ {
		s.WritePage(va, sim.Func(func() { done++ }), nil)
		eng.Run()
	}
	if done != 9 {
		t.Fatalf("done = %d, want 9 (stalled write must eventually finish)", done)
	}
	if s.Merges.Value() != 1 {
		t.Errorf("merges = %d, want 1", s.Merges.Value())
	}
	if s.StalledWrites.Value() == 0 {
		t.Error("the merge-triggering write should count as stalled")
	}
	// After the merge the newest version is still reachable.
	loc := s.ReadLoc(va)
	if !loc.FromLog {
		t.Errorf("post-merge write should sit in the fresh log: %+v", loc)
	}
	if s.MergePrograms.Value() == 0 || s.MergeReads.Value() == 0 {
		t.Error("merge must read and program pages")
	}
}

func TestSplitMergeUpdatesDBMT(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	s := NewSplit(eng, bb, cfg)
	va := uint64(0x9000)
	// An untouched page of the same vblock sits planes*pageBytes away.
	sibling := va + uint64(bb.Planes())*uint64(bb.Cfg.PageBytes)
	oldData := s.ReadLoc(sibling)
	for i := 0; i <= bb.Cfg.PagesPerBlock; i++ {
		s.WritePage(va, nil, nil)
		eng.Run()
	}
	newData := s.ReadLoc(sibling)
	if newData.Block == oldData.Block {
		t.Error("merge must move the data block to a fresh wear-levelled block")
	}
	if newData.FromLog {
		t.Error("untouched page must read from the merged data block")
	}
}

// Property: after an arbitrary write sequence, every page reads from
// either its data block or the log, and the newest write wins (the
// location changes monotonically in log-slot order).
func TestSplitMappingIntegrityProperty(t *testing.T) {
	f := func(writes []uint8) bool {
		eng := sim.NewEngine()
		bb, cfg := smallBB(eng)
		s := NewSplit(eng, bb, cfg)
		last := map[uint64]int{} // va -> write sequence
		for i, w := range writes {
			va := uint64(w%16) * 0x1000
			s.WritePage(va, nil, nil)
			eng.Run()
			last[va] = i
		}
		// Every written va resolves; unwritten vas resolve to data blocks.
		for va := uint64(0); va < 16*0x1000; va += 0x1000 {
			loc := s.ReadLoc(va)
			if _, written := last[va]; !written && loc.FromLog {
				return false
			}
			if loc.Plane < 0 || loc.Plane >= bb.Planes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSplitWearLeveling(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	s := NewSplit(eng, bb, cfg)
	// Hammer one page with enough writes for many merges.
	for i := 0; i < 100; i++ {
		s.WritePage(0x100, nil, nil)
		eng.Run()
	}
	if s.Merges.Value() < 5 {
		t.Fatalf("merges = %d, want several", s.Merges.Value())
	}
	// Wear-levelled allocation keeps the max erase count near the
	// number of merges divided by available blocks, far below the
	// total erase count.
	if mx := s.MaxEraseCount(); mx > int(s.Merges.Value()) {
		t.Errorf("max erase count %d exceeds merge count %d: wear leveling broken", mx, s.Merges.Value())
	}
}

func TestPageMappedLookupStableStriped(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	p := NewPageMapped(eng, bb, cfg)
	l1 := p.Lookup(0x1000)
	l2 := p.Lookup(0x1000)
	if l1 != l2 {
		t.Fatal("Lookup not stable")
	}
	if p.Lookup(0x2000).Plane == l1.Plane {
		t.Error("consecutive pages must stripe across planes")
	}
}

func TestPageMappedWriteInvalidatesOld(t *testing.T) {
	eng := sim.NewEngine()
	bb, cfg := smallBB(eng)
	p := NewPageMapped(eng, bb, cfg)
	old := p.Lookup(0x4000)
	done := false
	p.WritePage(0x4000, sim.Func(func() { done = true }), nil)
	eng.Run()
	if !done {
		t.Fatal("write incomplete")
	}
	now := p.Lookup(0x4000)
	if now == old {
		t.Fatal("write must relocate the page")
	}
	if bb.Plane(old.Plane).Block(old.Block).Valid(old.Page) {
		t.Error("old copy still valid")
	}
}

func TestPageMappedGCReclaims(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels = 1
	fc.DiesPerPkg = 1
	fc.PlanesPerDie = 1
	fc.BlocksPerPl = 8
	fc.PagesPerBlock = 4
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 30, 1000, 3000
	cfg := config.Default().FTL
	cfg.GCThreshold = 0.4 // GC below 3 free blocks
	bb := flash.New(eng, fc)
	p := NewPageMapped(eng, bb, cfg)
	// Rewrite a tiny working set far beyond capacity: GC must keep up.
	for i := 0; i < 100; i++ {
		p.WritePage(uint64(i%3)*0x1000, nil, nil)
		eng.Run()
	}
	if p.GCRuns.Value() == 0 {
		t.Fatal("GC never ran")
	}
	if p.FreeBlocks() == 0 {
		t.Error("GC failed to reclaim blocks")
	}
	// Mapping integrity: all three pages still resolve to valid pages.
	for i := 0; i < 3; i++ {
		l := p.Lookup(uint64(i) * 0x1000)
		if !bb.Plane(l.Plane).Block(l.Block).Valid(l.Page) {
			t.Errorf("page %d maps to invalid copy %+v", i, l)
		}
	}
}

// Property: page-mapped FTL never maps two virtual pages to the same
// physical slot, and the owner table is the forward table's inverse:
// every mapped page is valid and owned by the page that maps it.
func TestPageMappedNoAliasingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine()
		bb, cfg := smallBB(eng)
		p := NewPageMapped(eng, bb, cfg)
		for _, op := range ops {
			va := uint64(op%32) * 0x1000
			if op%3 == 0 {
				p.WritePage(va, nil, nil)
			} else {
				p.Lookup(va)
			}
			eng.Run()
		}
		seen := map[uint64]uint64{}
		ok := p.owner.len() == p.table.len()
		p.EachMapping(func(vp uint64, l Loc) {
			key := packLoc(l)
			if other, dup := seen[key]; dup && other != vp {
				ok = false
			}
			seen[key] = vp
			if !bb.Plane(l.Plane).Block(l.Block).Valid(l.Page) {
				ok = false
			}
			if owner, found := p.owner.get(p.physIdx(l)); !found || owner != vp {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPlaneAllocWearOrder(t *testing.T) {
	eng := sim.NewEngine()
	bb, _ := smallBB(eng)
	p := bb.Plane(0)
	a := newPlaneAlloc(p, 0, 4)
	// Wear block 2 once.
	if err := p.Erase(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got := map[int]bool{}
	for i := 0; i < 3; i++ {
		b, ok := a.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		got[b] = true
		if b == 2 {
			t.Errorf("worn block 2 popped before fresh blocks")
		}
	}
	if b, _ := a.pop(); b != 2 {
		t.Errorf("last pop = %d, want the worn block 2", b)
	}
	_ = got
}

// TestPhysIdxBijective checks the owner key on the differential
// geometry: every (plane, block, page) gets its own key, and the keys
// fill exactly [0, planes × blocks × pages).
func TestPhysIdxBijective(t *testing.T) {
	eng := sim.NewEngine()
	fc := diffCfg()
	p := NewPageMapped(eng, flash.New(eng, fc), config.Default().FTL)
	total := p.planes * fc.BlocksPerPl * fc.PagesPerBlock
	seen := make([]bool, total)
	for plane := 0; plane < p.planes; plane++ {
		for block := 0; block < fc.BlocksPerPl; block++ {
			for page := 0; page < fc.PagesPerBlock; page++ {
				k := p.physIdx(Loc{Plane: plane, Block: block, Page: page})
				if k >= uint64(total) {
					t.Fatalf("physIdx(%d, %d, %d) = %d, want < %d", plane, block, page, k, total)
				}
				if seen[k] {
					t.Fatalf("physIdx(%d, %d, %d) = %d collides", plane, block, page, k)
				}
				seen[k] = true
			}
		}
	}
}

// TestPageMappedStateBytesBounded maps one page per plane on the full
// 1,024-plane geometry, then rewrites one page per plane. Planes take
// blocks in lockstep, so the owner table packs into a few shared
// leaves; a plane-major key would allocate a 32 KB leaf per plane
// (over 32 MiB here).
func TestPageMappedStateBytesBounded(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	p := NewPageMapped(eng, flash.New(eng, fc), config.Default().FTL)
	planes := uint64(fc.Planes())
	for vp := uint64(0); vp < planes; vp++ {
		p.Lookup(vp * uint64(fc.PageBytes))
	}
	for vp := uint64(0); vp < planes; vp++ {
		p.WritePage(vp*uint64(fc.PageBytes), nil, nil)
	}
	eng.Run()
	if got, limit := p.StateBytes(), uint64(256<<10); got > limit {
		t.Fatalf("StateBytes = %d, want <= %d", got, limit)
	}
}

// TestPageMappedGCPanicsOnOrphanPage: a valid page in the GC victim
// with no owner entry cannot be moved, so erasing the victim would
// silently lose its data. pickVictim must fail loudly instead.
func TestPageMappedGCPanicsOnOrphanPage(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels, fc.DiesPerPkg, fc.PlanesPerDie = 1, 1, 1
	fc.BlocksPerPl = 8
	fc.PagesPerBlock = 4
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 30, 1000, 3000
	cfg := config.Default().FTL
	cfg.GCThreshold = 0 // never collect on its own
	p := NewPageMapped(eng, flash.New(eng, fc), cfg)
	// Fill block 0 with four pages; the fifth opens block 1, leaving
	// block 0 the only full, non-open block: the victim.
	for vp := uint64(0); vp <= 4; vp++ {
		p.WritePage(vp*uint64(fc.PageBytes), nil, nil)
	}
	eng.Run()
	orphan := Loc{Plane: 0, Block: 0, Page: 1}
	if !p.bb.Plane(0).Block(0).Valid(orphan.Page) {
		t.Fatalf("setup: %+v not valid", orphan)
	}
	p.owner.del(p.physIdx(orphan))

	got := func() (r any) {
		defer func() { r = recover() }()
		p.pickVictim(0)
		return nil
	}()
	if want := "ftl: valid page without owner (plane 0, block 0, page 1)"; got != want {
		t.Fatalf("pickVictim panic = %v, want %q", got, want)
	}
}
