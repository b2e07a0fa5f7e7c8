package flash

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

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

// Block state materializes lazily, one index entry and one record per
// touched block: EachBlock visits exactly the touched blocks, in
// ascending id order, wherever a new id falls in the plane's list.
func TestLazyBlockIndex(t *testing.T) {
	cfg := smallFlash()
	cfg.BlocksPerPl = 3*64 + 5
	b := New(sim.NewEngine(), cfg)
	p := b.Plane(1)
	var seen []int
	p.EachBlock(func(id int, _ *Block) { seen = append(seen, id) })
	if len(seen) != 0 {
		t.Fatalf("untouched plane holds state: blocks %v", seen)
	}
	// The highest id first, then ids before the head, in the middle and
	// after the tail.
	touched := []int{cfg.BlocksPerPl - 1, 3, 64, 2, 130, 0, 3}
	for _, id := range touched {
		p.Block(id).EraseCount = id
	}
	p.EachBlock(func(id int, bl *Block) {
		if bl.EraseCount != id {
			t.Errorf("block %d carries state of block %d", id, bl.EraseCount)
		}
		seen = append(seen, id)
	})
	want := []int{0, 2, 3, 64, 130, cfg.BlocksPerPl - 1}
	if len(seen) != len(want) {
		t.Fatalf("EachBlock visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("EachBlock visited %v, want %v", seen, want)
		}
	}
	if n := b.index.Len(); n != len(want) {
		t.Errorf("%d blocks indexed, want %d (touching block 3 again adds none)", n, len(want))
	}
	for pl := 0; pl < b.Planes(); pl++ {
		if pl != 1 {
			b.Plane(pl).EachBlock(func(id int, _ *Block) {
				t.Errorf("plane %d holds block %d, which was never touched", pl, id)
			})
		}
	}
}

// Block state for every plane comes from shared slabs that are never
// moved: across three block slabs and several growths of the index, a
// *Block stays the pointer Block returns, no two blocks share state or
// valid bits, and every plane still walks its blocks in id order.
func TestBlockSlabsKeepPointers(t *testing.T) {
	cfg := smallFlash()
	cfg.Channels = 16 // 64 planes
	cfg.BlocksPerPl = 8 * 64
	cfg.PagesPerBlock = 130 // three valid-bit words per block
	b := New(sim.NewEngine(), cfg)
	type at struct{ plane, block int }
	type state struct {
		bl *Block
		n  int // the block's erase count and, mod the page count, its one valid page
	}
	blocks := map[at]state{}
	initial := b.index.StateBytes()
	n := 0
	// A stride of 7 blocks spreads the ids over the whole plane.
	for blk := 0; n <= 2*blockSlab; blk += 7 {
		for pl := 0; pl < b.Planes(); pl++ {
			bl := b.Plane(pl).Block(blk)
			bl.EraseCount = n
			b.Plane(pl).PreloadPage(blk, n%cfg.PagesPerBlock)
			blocks[at{pl, blk}] = state{bl, n}
			n++
		}
	}
	if len(b.slabs) != 3 || b.index.StateBytes() <= initial {
		t.Fatalf("%d block slabs and an index of %d bytes (%d at first); the test must span three slabs and grow the index",
			len(b.slabs), b.index.StateBytes(), initial)
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
	for pl := 0; pl < b.Planes(); pl++ {
		next := 0
		b.Plane(pl).EachBlock(func(id int, bl *Block) {
			if id != next || blocks[at{pl, id}].bl != bl {
				t.Fatalf("plane %d visits block %d (%p), want block %d (%p)", pl, id, bl, next, blocks[at{pl, next}].bl)
			}
			next += 7
		})
		if next != 7*(len(blocks)/b.Planes()) {
			t.Fatalf("plane %d visited %d blocks, want %d", pl, next/7, len(blocks)/b.Planes())
		}
	}
}

// TestBlockStateFootprint pins block state to the blocks a cell
// touches: on the Table I backbone with one block touched in each of
// the 1,024 planes, everything New and Block allocate beyond the plane
// array and the block slabs is the index, under 128 bytes a plane (a
// per-plane block directory costs 640).
func TestBlockStateFootprint(t *testing.T) {
	cfg := config.Default().Flash
	if cfg.Planes() != 1024 || cfg.BlocksPerPl != 1024 {
		t.Fatalf("Table I backbone has %d planes of %d blocks, want 1,024 of 1,024", cfg.Planes(), cfg.BlocksPerPl)
	}
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := New(eng, cfg)
	for pl := 0; pl < b.Planes(); pl++ {
		b.Plane(pl).Block(pl % cfg.BlocksPerPl).EraseCount = pl
	}
	runtime.ReadMemStats(&after)
	for pl := 0; pl < b.Planes(); pl++ {
		if bl := b.Plane(pl).Block(pl % cfg.BlocksPerPl); bl.EraseCount != pl {
			t.Fatalf("plane %d block %d carries the state of plane %d", pl, pl%cfg.BlocksPerPl, bl.EraseCount)
		}
	}
	words := (cfg.PagesPerBlock + 63) / 64
	slabs := blockSlab * (unsafe.Sizeof(Block{}) + uintptr(words)*8)
	planes := uintptr(b.Planes()) * unsafe.Sizeof(Plane{})
	extra := int64(after.TotalAlloc-before.TotalAlloc) - int64(slabs+planes)
	if budget := int64(128 * b.Planes()); extra > budget {
		t.Errorf("block state beyond the plane array and block slabs: %d bytes, budget %d (128 per plane)", extra, budget)
	}
	t.Logf("beyond the plane array (%d B) and block slabs (%d B): %d B", planes, slabs, extra)
}
