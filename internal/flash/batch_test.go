package flash

import (
	"testing"

	"zng/internal/sim"
)

func TestReadManyTiming(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	p := b.Plane(0)
	var at sim.Tick
	p.ReadMany(5, sim.Func(func() { at = eng.Now() }), nil)
	eng.Run()
	if want := 5 * cfg.ReadLat; at != want {
		t.Errorf("ReadMany(5) completed at %d, want %d", at, want)
	}
	if b.ArrayReads.Value() != 5 {
		t.Errorf("array reads = %d", b.ArrayReads.Value())
	}
}

func TestReadManyZero(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, smallFlash())
	done := false
	b.Plane(0).ReadMany(0, sim.Func(func() { done = true }), nil)
	eng.Run()
	if !done {
		t.Error("zero-page burst must still complete")
	}
	if b.ArrayReads.Value() != 0 {
		t.Error("zero-page burst counted reads")
	}
}

func TestProgramRange(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	p := b.Plane(0)
	var at sim.Tick
	if err := p.ProgramRange(2, 3, sim.Func(func() { at = eng.Now() }), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if want := 3 * cfg.ProgramLat; at != want {
		t.Errorf("ProgramRange(3) completed at %d, want %d", at, want)
	}
	bl := p.Block(2)
	if bl.WritePtr != 3 || bl.ValidCount() != 3 {
		t.Errorf("block state: ptr=%d valid=%d", bl.WritePtr, bl.ValidCount())
	}
	// A second range continues in order.
	if err := p.ProgramRange(2, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if p.Block(2).WritePtr != 4 {
		t.Errorf("ptr = %d", p.Block(2).WritePtr)
	}
}

func TestProgramRangeOverflow(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash() // 4 pages per block
	b := New(eng, cfg)
	p := b.Plane(0)
	if err := p.ProgramRange(0, cfg.PagesPerBlock+1, nil, nil); err != ErrNotErased {
		t.Errorf("overflow range: err = %v, want ErrNotErased", err)
	}
	_ = eng
}

func TestPreloadPage(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, smallFlash())
	p := b.Plane(0)
	p.PreloadPage(1, 2)
	bl := p.Block(1)
	if !bl.Valid(2) || bl.Valid(0) {
		t.Error("PreloadPage validity wrong")
	}
	if bl.WritePtr != 3 {
		t.Errorf("write pointer = %d, want advanced past the page", bl.WritePtr)
	}
	// Preloading an earlier page must not retreat the pointer.
	p.PreloadPage(1, 0)
	if bl.WritePtr != 3 {
		t.Errorf("write pointer retreated to %d", bl.WritePtr)
	}
	_ = eng
}

func TestEachBlockVisitsOnlyMaterialized(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, smallFlash())
	p := b.Plane(0)
	p.Block(3)
	p.Block(5)
	seen := map[int]bool{}
	p.EachBlock(func(id int, _ *Block) { seen[id] = true })
	if len(seen) != 2 || !seen[3] || !seen[5] {
		t.Errorf("EachBlock visited %v", seen)
	}
	_ = eng
}
