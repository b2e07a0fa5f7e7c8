package ftl

import (
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/sim"
)

// TestSplitSurvivesWornLogBlock drives a log group until its block
// exhausts its P/E budget mid-merge; the FTL must retire it, allocate
// a replacement, and keep accepting writes.
func TestSplitSurvivesWornLogBlock(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels = 1
	fc.DiesPerPkg = 1
	fc.PlanesPerDie = 1
	fc.BlocksPerPl = 64
	fc.PagesPerBlock = 4
	fc.PECycles = 3 // wear out quickly
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 10, 50, 100
	cfg := config.Default().FTL
	bb := flash.New(eng, fc)
	s := NewSplit(eng, bb, cfg)

	done := 0
	const writes = 60 // ~15 merges against a 3-erase budget
	for i := 0; i < writes; i++ {
		s.WritePage(0x1000, sim.Func(func() { done++ }), nil)
		eng.Run()
	}
	if done != writes {
		t.Fatalf("done = %d, want %d: worn log block wedged the FTL", done, writes)
	}
	if s.Merges.Value() < 10 {
		t.Errorf("merges = %d, want many", s.Merges.Value())
	}
	// The newest version must still resolve.
	loc := s.ReadLoc(0x1000)
	if loc.Plane != 0 {
		t.Errorf("bad plane %d", loc.Plane)
	}
}

// TestSplitManyGroupsConcurrentMerges exercises merges on several
// groups at once (the helper thread serializes initiation, not the
// flash work).
func TestSplitManyGroupsConcurrentMerges(t *testing.T) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.Channels = 2
	fc.DiesPerPkg = 1
	fc.PlanesPerDie = 2
	fc.BlocksPerPl = 32
	fc.PagesPerBlock = 4
	fc.ReadLat, fc.ProgramLat, fc.EraseLat = 10, 50, 100
	bb := flash.New(eng, fc)
	s := NewSplit(eng, bb, config.Default().FTL)

	done := 0
	const perPlane = 20
	for i := 0; i < perPlane; i++ {
		for plane := 0; plane < 4; plane++ {
			s.WritePage(uint64(plane)*4096, sim.Func(func() { done++ }), nil)
		}
	}
	eng.Run()
	if done != perPlane*4 {
		t.Fatalf("done = %d, want %d", done, perPlane*4)
	}
	if s.Merges.Value() < 4 {
		t.Errorf("merges = %d, want at least one per plane group", s.Merges.Value())
	}
}
