package cache

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
)

// backend is a fixed-latency memory recording the requests it saw.
type backend struct {
	eng      *sim.Engine
	lat      sim.Tick
	reqs     []mem.Request
	inFlight int
}

func (b *backend) Access(r *mem.Request) {
	b.reqs = append(b.reqs, *r)
	b.inFlight++
	b.eng.Schedule(b.lat, sim.Func(func() { b.inFlight--; r.Complete() }), nil)
}

func (b *backend) reads() int {
	n := 0
	for _, r := range b.reqs {
		if !r.Write {
			n++
		}
	}
	return n
}

func smallCfg() config.Cache {
	return config.Cache{Sets: 4, Ways: 2, LineBytes: 128, Banks: 1,
		ReadLat: 1, WriteLat: 1, MSHRs: 4, WriteBack: true}
}

func newTB(cfg config.Cache) (*sim.Engine, *Cache, *backend) {
	eng := sim.NewEngine()
	be := &backend{eng: eng, lat: 100}
	return eng, New(eng, cfg, be, "test"), be
}

func read(c *Cache, addr uint64, done *int) {
	c.Access(&mem.Request{Addr: addr, Size: 128, Done: sim.Func(func() { *done++ })})
}

func write(c *Cache, addr uint64, done *int) {
	c.Access(&mem.Request{Addr: addr, Size: 128, Write: true, Done: sim.Func(func() { *done++ })})
}

func TestMissThenHit(t *testing.T) {
	eng, c, be := newTB(smallCfg())
	done := 0
	read(c, 0x1000, &done)
	eng.Run()
	if done != 1 || be.reads() != 1 {
		t.Fatalf("after miss: done=%d backendReads=%d", done, be.reads())
	}
	if eng.Now() < 100 {
		t.Errorf("miss completed at %d, want >= backend latency", eng.Now())
	}
	start := eng.Now()
	read(c, 0x1000, &done)
	eng.Run()
	if done != 2 || be.reads() != 1 {
		t.Fatalf("after hit: done=%d backendReads=%d", done, be.reads())
	}
	if eng.Now()-start > 10 {
		t.Errorf("hit took %d ticks, want fast", eng.Now()-start)
	}
	if c.Hits.Value() != 1 || c.Misses.Value() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits.Value(), c.Misses.Value())
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	eng, c, be := newTB(smallCfg())
	done := 0
	read(c, 0x1000, &done)
	eng.Run()
	read(c, 0x1040, &done) // same 128 B line
	eng.Run()
	if be.reads() != 1 {
		t.Errorf("backend reads = %d, want 1", be.reads())
	}
	if done != 2 {
		t.Errorf("done = %d", done)
	}
}

func TestMSHRMerging(t *testing.T) {
	eng, c, be := newTB(smallCfg())
	done := 0
	read(c, 0x2000, &done)
	read(c, 0x2010, &done) // same line while miss outstanding
	read(c, 0x2020, &done)
	eng.Run()
	if be.reads() != 1 {
		t.Errorf("backend reads = %d, want 1 (merged)", be.reads())
	}
	if done != 3 {
		t.Errorf("done = %d, want 3", done)
	}
	if c.MergedMisses.Value() != 2 {
		t.Errorf("merged = %d, want 2", c.MergedMisses.Value())
	}
}

func TestMSHROverflowDrains(t *testing.T) {
	cfg := smallCfg()
	cfg.MSHRs = 2
	eng, c, be := newTB(cfg)
	done := 0
	// 6 distinct lines: 2 in MSHRs, 4 overflow.
	for i := 0; i < 6; i++ {
		read(c, uint64(i)*0x1000, &done)
	}
	eng.Run()
	if done != 6 {
		t.Fatalf("done = %d, want 6 (overflow must drain)", done)
	}
	if be.reads() != 6 {
		t.Errorf("backend reads = %d, want 6", be.reads())
	}
}

func TestLRUEviction(t *testing.T) {
	eng, c, be := newTB(smallCfg()) // 4 sets x 2 ways, 1 bank
	done := 0
	// Three lines mapping to the same set (stride = sets*lineBytes = 512).
	a, b2, d := uint64(0), uint64(512), uint64(1024)
	read(c, a, &done)
	eng.Run()
	read(c, b2, &done)
	eng.Run()
	read(c, a, &done) // touch a so b2 is LRU
	eng.Run()
	read(c, d, &done) // evicts b2
	eng.Run()
	if !c.Contains(a) || c.Contains(b2) || !c.Contains(d) {
		t.Errorf("LRU eviction wrong: a=%v b=%v d=%v", c.Contains(a), c.Contains(b2), c.Contains(d))
	}
	_ = be
}

func TestWriteThroughNoAllocate(t *testing.T) {
	cfg := smallCfg()
	cfg.WriteBack = false
	eng, c, be := newTB(cfg)
	done := 0
	write(c, 0x3000, &done)
	eng.Run()
	if done != 1 {
		t.Fatalf("done = %d", done)
	}
	if c.Contains(0x3000) {
		t.Error("write-through cache must not allocate on write miss")
	}
	if len(be.reqs) != 1 || !be.reqs[0].Write {
		t.Errorf("backend should see the store: %+v", be.reqs)
	}
}

func TestWriteBackAllocateAndWriteback(t *testing.T) {
	eng, c, be := newTB(smallCfg())
	done := 0
	write(c, 0, &done) // allocate + dirty
	eng.Run()
	if !c.Contains(0) {
		t.Fatal("write-allocate failed")
	}
	// Evict line 0 by filling the set with two more lines.
	read(c, 512, &done)
	eng.Run()
	read(c, 1024, &done)
	eng.Run()
	if c.Contains(0) {
		t.Fatal("line 0 should be evicted")
	}
	foundWB := false
	for _, r := range be.reqs {
		if r.Write && r.Addr == 0 && r.Size == 128 {
			foundWB = true
		}
	}
	if !foundWB {
		t.Error("dirty eviction must write back to the next level")
	}
	if c.Writebacks.Value() != 1 {
		t.Errorf("writebacks = %d", c.Writebacks.Value())
	}
}

func TestReadOnlyCacheWriteBypassAndInvalidate(t *testing.T) {
	cfg := smallCfg()
	cfg.ReadOnly = true
	cfg.WriteBack = false
	eng, c, be := newTB(cfg)
	done := 0
	read(c, 0x4000, &done)
	eng.Run()
	if !c.Contains(0x4000) {
		t.Fatal("read fill failed")
	}
	write(c, 0x4000, &done)
	eng.Run()
	if c.Contains(0x4000) {
		t.Error("write must invalidate the line in a read-only cache")
	}
	sawStore := false
	for _, r := range be.reqs {
		if r.Write {
			sawStore = true
		}
	}
	if !sawStore {
		t.Error("store must be forwarded to the backend")
	}
}

func TestPinnedLineAbsorbsWrites(t *testing.T) {
	cfg := smallCfg()
	cfg.ReadOnly = true
	eng, c, be := newTB(cfg)
	if !c.PinDirty(0x5000) {
		t.Fatal("PinDirty failed")
	}
	before := len(be.reqs)
	done := 0
	write(c, 0x5000, &done)
	eng.Run()
	if done != 1 {
		t.Fatal("pinned write did not complete")
	}
	if len(be.reqs) != before {
		t.Error("pinned line must absorb the store locally")
	}
	if c.PinnedNow != 1 {
		t.Errorf("PinnedNow = %d", c.PinnedNow)
	}
	c.Unpin(0x5000)
	if c.PinnedNow != 0 {
		t.Errorf("PinnedNow after Unpin = %d", c.PinnedNow)
	}
}

func TestAllWaysPinnedBypasses(t *testing.T) {
	eng, c, _ := newTB(smallCfg()) // 2 ways
	c.PinDirty(0)
	c.PinDirty(512)
	// Set is fully pinned: a new install must bypass.
	if _, w := c.install(1024, false); w >= 0 {
		t.Error("install into fully pinned set should bypass")
	}
	done := 0
	read(c, 1024, &done)
	eng.Run()
	if done != 1 {
		t.Error("bypassed read must still complete")
	}
	if c.Contains(1024) {
		t.Error("bypassed line must not displace pinned lines")
	}
}

func TestPrefetchBits(t *testing.T) {
	eng, c, _ := newTB(smallCfg())
	c.InstallPrefetch(0)
	// Evict it unused: fill the set.
	done := 0
	read(c, 512, &done)
	eng.Run()
	read(c, 1024, &done)
	eng.Run()
	if c.PrefEvicted.Value() != 1 || c.PrefUnused.Value() != 1 {
		t.Errorf("pref evicted/unused = %d/%d, want 1/1",
			c.PrefEvicted.Value(), c.PrefUnused.Value())
	}

	// Now a prefetched line that is demand-hit before eviction.
	c.InstallPrefetch(0x10000)
	read(c, 0x10000, &done)
	eng.Run()
	read(c, 0x10000+512, &done)
	eng.Run()
	read(c, 0x10000+1024, &done)
	eng.Run()
	if c.PrefUnused.Value() != 1 {
		t.Errorf("accessed prefetch counted as unused: %d", c.PrefUnused.Value())
	}
}

func TestOnEvictCallback(t *testing.T) {
	eng, c, _ := newTB(smallCfg())
	var infos []EvictInfo
	c.OnEvict = func(e EvictInfo) { infos = append(infos, e) }
	c.InstallPrefetch(0)
	done := 0
	read(c, 512, &done)
	eng.Run()
	read(c, 1024, &done)
	eng.Run()
	if len(infos) != 1 || !infos[0].Prefetch || infos[0].Accessed {
		t.Errorf("evict infos = %+v", infos)
	}
}

func TestBankedCacheDistributes(t *testing.T) {
	cfg := smallCfg()
	cfg.Banks = 4
	eng, c, _ := newTB(cfg)
	done := 0
	for i := 0; i < 8; i++ {
		read(c, uint64(i)*128, &done)
	}
	eng.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	// Consecutive lines land in consecutive banks: each of the four
	// banks granted two of the eight lookups.
	for i, b := range c.banks {
		if n := b.Served(); n != 2 {
			t.Errorf("bank %d served %d lookups, want 2", i, n)
		}
	}
}

// Property: after any sequence of reads, no tag row holds a line twice,
// every resident line sits in the row its address maps to, and the
// ranks of a row's k resident ways are 0 to k-1.
func TestNoDuplicateTagsProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		eng, c, _ := newTB(smallCfg())
		done := 0
		for _, a := range addrs {
			read(c, uint64(a)*128, &done)
		}
		eng.Run()
		if done != len(addrs) {
			return false
		}
		for base := 0; base < len(c.words); base += c.cfg.Ways {
			row := c.words[base : base+c.cfg.Ways]
			seen := map[uint64]bool{}
			for _, w := range row {
				if w == 0 {
					continue
				}
				la := w >> tagShift << c.shift
				if home, _ := c.locate(la); seen[la] || &home[0] != &row[0] {
					return false
				}
				seen[la] = true
			}
			if !ranksDense(row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// ranksDense reports whether the k resident ways of row hold the ranks
// 0 to k-1.
func ranksDense(row []uint64) bool {
	seen := make([]bool, len(row))
	k := 0
	for _, w := range row {
		if w == 0 {
			continue
		}
		r := (w & rankMask) >> rankShift
		if r >= uint64(len(row)) || seen[r] {
			return false
		}
		seen[r] = true
		k++
	}
	return !slices.Contains(seen[:k], false)
}

func TestHitRate(t *testing.T) {
	eng, c, _ := newTB(smallCfg())
	done := 0
	read(c, 0, &done)
	eng.Run()
	for i := 0; i < 3; i++ {
		read(c, 0, &done)
		eng.Run()
	}
	if hr := c.HitRate(); hr != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", hr)
	}
}

func TestSTTMRAMWriteLatency(t *testing.T) {
	// STT-MRAM write-back config: write hits take WriteLat (5), read hits ReadLat (1).
	cfg := smallCfg()
	cfg.WriteLat = 5
	eng, c, _ := newTB(cfg)
	done := 0
	write(c, 0, &done) // allocate
	eng.Run()
	t0 := eng.Now()
	write(c, 0, &done) // hit
	eng.Run()
	writeTime := eng.Now() - t0
	t0 = eng.Now()
	read(c, 0, &done)
	eng.Run()
	readTime := eng.Now() - t0
	if writeTime <= readTime {
		t.Errorf("write hit (%d) must be slower than read hit (%d)", writeTime, readTime)
	}
}

// TestTagStoreFootprint: the 24 MB L2's tag store costs one 8-byte word
// per way; everything else New allocates (MSHRs, banks) fits a small
// fixed allowance.
func TestTagStoreFootprint(t *testing.T) {
	cfg := config.Default().L2STT
	ways := uint64(cfg.Banks * cfg.Sets * cfg.Ways)
	eng := sim.NewEngine()
	next := &backend{eng: eng}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(eng, cfg, next, "L2")
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	const allowance = 32 << 10
	if got, limit := after.TotalAlloc-before.TotalAlloc, 8*ways+allowance; got > limit {
		t.Errorf("New allocated %d B for %d ways (%.2f B/way), want at most %d", got, ways, float64(got)/float64(ways), limit)
	}
}

// TestTooWideLinePanics: a line number beyond the tag field would alias
// a narrower line, so every path that looks one up panics, and the
// line is never stored.
func TestTooWideLinePanics(t *testing.T) {
	eng, c, _ := newTB(smallCfg())
	c.InstallPrefetch(0) // the line the wide one would alias
	wide := uint64(maxLine+1) << c.shift
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Contains", func() { c.Contains(wide) }},
		{"InstallPrefetch", func() { c.InstallPrefetch(wide) }},
		{"PinDirty", func() { c.PinDirty(wide) }},
		{"Unpin", func() { c.Unpin(wide) }},
		{"Access", func() { done := 0; read(c, wide, &done); eng.Run() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(%#x) did not panic", op.name, wide)
				}
			}()
			op.f()
		}()
	}
	for i, w := range c.words {
		if w != 0 && w>>tagShift != 0 {
			t.Errorf("way %d holds line %#x", i, w>>tagShift<<c.shift)
		}
	}
	if !c.Contains(0) || c.PinnedNow != 0 {
		t.Errorf("line 0 resident %v, %d pinned; want resident, none pinned", c.Contains(0), c.PinnedNow)
	}
}
