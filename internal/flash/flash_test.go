package flash

import (
	"testing"
	"testing/quick"

	"zng/internal/config"
	"zng/internal/sim"
)

func smallFlash() config.Flash {
	cfg := config.Default().Flash
	cfg.Channels = 2
	cfg.DiesPerPkg = 2
	cfg.PlanesPerDie = 2
	cfg.BlocksPerPl = 8
	cfg.PagesPerBlock = 4
	return cfg
}

func TestGeometry(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, smallFlash())
	if b.Planes() != 8 {
		t.Fatalf("planes = %d, want 8", b.Planes())
	}
	if b.Packages() != 2 {
		t.Fatalf("packages = %d", b.Packages())
	}
	if b.ChannelOf(0) != 0 || b.ChannelOf(7) != 1 {
		t.Errorf("channel mapping: %d %d", b.ChannelOf(0), b.ChannelOf(7))
	}
	if b.PackageOf(3) != 0 || b.PackageOf(4) != 1 {
		t.Errorf("package mapping: %d %d", b.PackageOf(3), b.PackageOf(4))
	}
	if b.PlaneInDie(3) != 1 {
		t.Errorf("plane-in-die: %d", b.PlaneInDie(3))
	}
}

func TestReadTiming(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	p := b.Plane(0)
	p.Preload(0)
	var at sim.Tick
	p.Read(0, 2, sim.Func(func() { at = eng.Now() }), nil)
	eng.Run()
	if at != cfg.ReadLat {
		t.Errorf("read completed at %d, want tR=%d", at, cfg.ReadLat)
	}
	if b.ArrayReads.Value() != 1 || p.Reads != 1 {
		t.Errorf("read counters: %d/%d", b.ArrayReads.Value(), p.Reads)
	}
}

func TestPlaneSerializesArrayOps(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	p := b.Plane(0)
	var t1, t2 sim.Tick
	p.Read(0, 0, sim.Func(func() { t1 = eng.Now() }), nil)
	p.Read(0, 1, sim.Func(func() { t2 = eng.Now() }), nil)
	eng.Run()
	if t2-t1 != cfg.ReadLat {
		t.Errorf("second read must wait for the array: t1=%d t2=%d", t1, t2)
	}
}

func TestPlanesOperateInParallel(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	var t1, t2 sim.Tick
	b.Plane(0).Read(0, 0, sim.Func(func() { t1 = eng.Now() }), nil)
	b.Plane(1).Read(0, 0, sim.Func(func() { t2 = eng.Now() }), nil)
	eng.Run()
	if t1 != t2 {
		t.Errorf("independent planes must not serialize: %d vs %d", t1, t2)
	}
}

func TestInOrderProgramming(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, smallFlash())
	p := b.Plane(0)
	if err := p.Program(0, 1, nil, nil); err != ErrOutOfOrder {
		t.Errorf("out-of-order program: err = %v, want ErrOutOfOrder", err)
	}
	if err := p.Program(0, 0, nil, nil); err != nil {
		t.Errorf("in-order program failed: %v", err)
	}
	if err := p.Program(0, 1, nil, nil); err != nil {
		t.Errorf("next in-order program failed: %v", err)
	}
	eng.Run()
	if got := p.Block(0).WritePtr; got != 2 {
		t.Errorf("write pointer = %d, want 2", got)
	}
}

func TestEraseBeforeWrite(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	p := b.Plane(0)
	for i := 0; i < cfg.PagesPerBlock; i++ {
		if err := p.Program(0, i, nil, nil); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
	if err := p.Program(0, 0, nil, nil); err != ErrNotErased {
		t.Errorf("program to full block: err = %v, want ErrNotErased", err)
	}
	if err := p.Erase(0, nil, nil); err != nil {
		t.Fatalf("erase: %v", err)
	}
	if err := p.Program(0, 0, nil, nil); err != nil {
		t.Errorf("program after erase: %v", err)
	}
	eng.Run()
	if p.Block(0).EraseCount != 1 {
		t.Errorf("erase count = %d", p.Block(0).EraseCount)
	}
}

func TestPECyclesEnforced(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	cfg.PECycles = 2
	b := New(eng, cfg)
	p := b.Plane(0)
	for i := 0; i < 2; i++ {
		if err := p.Erase(0, nil, nil); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := p.Erase(0, nil, nil); err != ErrWornOut {
		t.Errorf("worn block erase: err = %v, want ErrWornOut", err)
	}
	eng.Run()
}

func TestProgramSlowerThanRead(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	p := b.Plane(0)
	var readAt, progAt sim.Tick
	p.Read(1, 0, sim.Func(func() { readAt = eng.Now() }), nil)
	eng.Run()
	e2 := sim.NewEngine()
	b2 := New(e2, cfg)
	p2 := b2.Plane(0)
	if err := p2.Program(1, 0, sim.Func(func() { progAt = e2.Now() }), nil); err != nil {
		t.Fatal(err)
	}
	e2.Run()
	if progAt <= readAt {
		t.Errorf("tPROG (%d) must exceed tR (%d)", progAt, readAt)
	}
	_ = p
}

func TestValidityTracking(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, smallFlash())
	p := b.Plane(0)
	p.Preload(3)
	bl := p.Block(3)
	if got := bl.ValidCount(); got != 4 {
		t.Fatalf("preloaded valid = %d, want 4", got)
	}
	p.MarkInvalid(3, 1)
	p.MarkInvalid(3, 2)
	if got := bl.ValidCount(); got != 2 {
		t.Errorf("valid after invalidations = %d, want 2", got)
	}
	if bl.Valid(1) || !bl.Valid(0) {
		t.Error("per-page validity wrong")
	}
	eng.Run()
}

func TestBadIndexesPanicOrError(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, smallFlash())
	p := b.Plane(0)
	if err := p.Program(0, 99, nil, nil); err != ErrBadPage {
		t.Errorf("bad page program err = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic for out-of-range block")
			}
		}()
		p.Block(99)
	}()
	_ = eng
}

func TestBackboneTrafficAccounting(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallFlash()
	b := New(eng, cfg)
	b.Plane(0).Read(0, 0, nil, nil)
	b.Plane(1).Read(0, 0, nil, nil)
	if err := b.Plane(2).Program(0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.TotalBytesRead() != uint64(2*cfg.PageBytes) {
		t.Errorf("bytes read = %d", b.TotalBytesRead())
	}
	if b.TotalBytesProgrammed() != uint64(cfg.PageBytes) {
		t.Errorf("bytes programmed = %d", b.TotalBytesProgrammed())
	}
}

func TestRowDecoderCAM(t *testing.T) {
	d := NewRowDecoder(4)
	if _, ok := d.Lookup(42); ok {
		t.Error("empty CAM lookup must miss")
	}
	s0, ok := d.Insert(42)
	if !ok || s0 != 0 {
		t.Fatalf("first insert: slot=%d ok=%v", s0, ok)
	}
	s1, _ := d.Insert(43)
	if s1 != 1 {
		t.Errorf("in-order slot allocation: got %d", s1)
	}
	// Re-insert supersedes: new slot, old becomes stale.
	s2, _ := d.Insert(42)
	if s2 != 2 {
		t.Errorf("reinsert slot = %d, want 2", s2)
	}
	if got, _ := d.Lookup(42); got != 2 {
		t.Errorf("lookup after reinsert = %d, want 2", got)
	}
	if d.Live() != 2 || d.Used() != 3 {
		t.Errorf("live/used = %d/%d, want 2/3", d.Live(), d.Used())
	}
	if d.Full() {
		t.Error("not full yet")
	}
	d.Insert(44)
	if !d.Full() {
		t.Error("should be full at capacity 4")
	}
	if _, ok := d.Insert(45); ok {
		t.Error("insert into full decoder must fail")
	}
	keys := d.Keys()
	if len(keys) != 3 {
		t.Errorf("keys = %v", keys)
	}
	d.Reset()
	if d.Used() != 0 || d.Live() != 0 || d.Full() {
		t.Error("reset did not clear decoder")
	}
}

// Property: for any insert sequence, slots are strictly increasing and
// never exceed capacity; lookup always returns the latest slot.
func TestRowDecoderProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		d := NewRowDecoder(16)
		last := make(map[uint64]int)
		prev := -1
		for _, k := range keys {
			slot, ok := d.Insert(uint64(k))
			if !ok {
				break
			}
			if slot <= prev {
				return false
			}
			prev = slot
			last[uint64(k)] = slot
		}
		for k, want := range last {
			if got, ok := d.Lookup(k); !ok || got != want {
				return false
			}
		}
		return d.Used() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Block state materializes lazily, one directory chunk at a time:
// EachBlock visits exactly the touched blocks, in ascending id order,
// across chunk boundaries.
func TestLazyBlockDirectory(t *testing.T) {
	cfg := smallFlash()
	cfg.BlocksPerPl = 3*blockChunk + 5
	b := New(sim.NewEngine(), cfg)
	p := b.Plane(1)
	var seen []int
	p.EachBlock(func(id int, _ *Block) { seen = append(seen, id) })
	if len(seen) != 0 {
		t.Fatalf("untouched plane holds state: blocks %v", seen)
	}
	touched := []int{cfg.BlocksPerPl - 1, 3, blockChunk, 2}
	for _, id := range touched {
		p.Block(id).EraseCount = id
	}
	p.EachBlock(func(id int, bl *Block) {
		if bl.EraseCount != id {
			t.Errorf("block %d carries state of block %d", id, bl.EraseCount)
		}
		seen = append(seen, id)
	})
	want := []int{2, 3, blockChunk, cfg.BlocksPerPl - 1}
	if len(seen) != len(want) {
		t.Fatalf("EachBlock visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("EachBlock visited %v, want %v", seen, want)
		}
	}
	allocated := 0
	for _, dir := range p.chunks {
		if dir != nil {
			allocated++
		}
	}
	if allocated != 3 {
		t.Errorf("%d directory chunks allocated, want 3 (blocks 2 and 3 share one)", allocated)
	}
}

// Block state for every plane comes from shared slabs that are never
// moved: across three block slabs and two directory slabs, a *Block
// stays the pointer Block returns, and no two blocks share state or
// valid bits.
func TestBlockSlabsKeepPointers(t *testing.T) {
	cfg := smallFlash()
	cfg.Channels = 16 // 64 planes
	cfg.BlocksPerPl = 8 * blockChunk
	cfg.PagesPerBlock = 130 // three valid-bit words per block
	b := New(sim.NewEngine(), cfg)
	type at struct{ plane, block int }
	type state struct {
		bl *Block
		n  int // the block's erase count and, mod the page count, its one valid page
	}
	blocks := map[at]state{}
	n := 0
	// A stride of 7 blocks opens a new directory chunk every nine or
	// ten blocks, so the planes fill more than one directory slab.
	for blk := 0; n <= 2*blockSlab; blk += 7 {
		for pl := 0; pl < b.Planes(); pl++ {
			bl := b.Plane(pl).Block(blk)
			bl.EraseCount = n
			b.Plane(pl).PreloadPage(blk, n%cfg.PagesPerBlock)
			blocks[at{pl, blk}] = state{bl, n}
			n++
		}
	}
	dirs := 0
	for pl := 0; pl < b.Planes(); pl++ {
		for _, dir := range b.Plane(pl).chunks {
			if dir != nil {
				dirs++
			}
		}
	}
	if dirs <= dirSlab {
		t.Fatalf("only %d directory chunks touched; the test must span two slabs", dirs)
	}
	for k, st := range blocks {
		bl, page := st.bl, st.n%cfg.PagesPerBlock
		if got := b.Plane(k.plane).Block(k.block); got != bl {
			t.Fatalf("plane %d block %d moved", k.plane, k.block)
		}
		if bl.EraseCount != st.n || bl.ValidCount() != 1 || !bl.Valid(page) {
			t.Fatalf("plane %d block %d: erase count %d with %d valid pages; want %d with page %d alone",
				k.plane, k.block, bl.EraseCount, bl.ValidCount(), st.n, page)
		}
	}
}
