package ssd

import (
	"testing"

	"zng/internal/config"
	"zng/internal/intmap"
	"zng/internal/mem"
	"zng/internal/sim"
)

func testModule(bufPages int) (*sim.Engine, *Module) {
	eng := sim.NewEngine()
	c := config.Default()
	fc := c.Flash
	fc.Channels = 4
	fc.DiesPerPkg = 2
	fc.PlanesPerDie = 2
	fc.BlocksPerPl = 64
	fc.PagesPerBlock = 16
	ec := c.Engine
	ec.DRAMBufBytes = int64(bufPages) * int64(fc.PageBytes)
	return eng, New(eng, ec, fc, c.FTL)
}

func TestReadMissFillsBufferThenHits(t *testing.T) {
	eng, m := testModule(64)
	done := 0
	m.Access(&mem.Request{Addr: 0x1000, Size: 128, Done: sim.Func(func() { done++ })})
	eng.Run()
	if done != 1 {
		t.Fatal("read did not complete")
	}
	missTime := eng.Now()
	if missTime < m.BB.Cfg.ReadLat {
		t.Errorf("miss completed at %d, must include tR=%d", missTime, m.BB.Cfg.ReadLat)
	}
	if m.BufMisses.Value() != 1 || m.ReadFills.Value() != 1 {
		t.Errorf("miss accounting: %d/%d", m.BufMisses.Value(), m.ReadFills.Value())
	}

	start := eng.Now()
	m.Access(&mem.Request{Addr: 0x1040, Size: 128, Done: sim.Func(func() { done++ })})
	eng.Run()
	if done != 2 {
		t.Fatal("hit did not complete")
	}
	if hitTime := eng.Now() - start; hitTime >= missTime {
		t.Errorf("buffer hit (%d) must be much faster than the fill (%d)", hitTime, missTime)
	}
	if m.BufHits.Value() != 1 {
		t.Errorf("buffer hits = %d", m.BufHits.Value())
	}
}

func TestEngineSerializesRequests(t *testing.T) {
	eng, m := testModule(1024)
	// Warm two pages so everything hits the buffer; completion is then
	// engine-throughput-bound.
	done := 0
	m.Access(&mem.Request{Addr: 0, Size: 128, Done: sim.Func(func() { done++ })})
	m.Access(&mem.Request{Addr: 0x1000, Size: 128, Done: sim.Func(func() { done++ })})
	eng.Run()
	const n = 256
	start := eng.Now()
	for i := 0; i < n; i++ {
		m.Access(&mem.Request{Addr: uint64(i%2) * 0x1000, Size: 128, Done: sim.Func(func() { done++ })})
	}
	eng.Run()
	elapsed := eng.Now() - start
	// n requests over `cores` cores at FTLLatPerReq each.
	min := sim.Tick(n) * m.cfg.FTLLatPerReq / sim.Tick(m.cfg.Cores)
	if elapsed < min {
		t.Errorf("elapsed %d < engine-bound minimum %d: firmware cost not charged", elapsed, min)
	}
	if done != n+2 {
		t.Errorf("done = %d", done)
	}
}

func TestWriteAllocatesWithoutFlashRead(t *testing.T) {
	eng, m := testModule(64)
	done := 0
	m.Access(&mem.Request{Addr: 0x9000, Size: 128, Write: true, Done: sim.Func(func() { done++ })})
	eng.Run()
	if done != 1 {
		t.Fatal("write did not complete")
	}
	if m.BB.ArrayReads.Value() != 0 {
		t.Error("buffered write must not touch the flash array")
	}
	if m.BB.ArrayPrograms.Value() != 0 {
		t.Error("write must be absorbed by the buffer, not programmed")
	}
}

func TestDirtyEvictionFlushesToFlash(t *testing.T) {
	eng, m := testModule(2) // tiny buffer
	done := 0
	m.Access(&mem.Request{Addr: 0, Size: 128, Write: true, Done: sim.Func(func() { done++ })})
	eng.Run()
	// Two more pages force the dirty page out.
	m.Access(&mem.Request{Addr: 0x1000, Size: 128, Done: sim.Func(func() { done++ })})
	eng.Run()
	m.Access(&mem.Request{Addr: 0x2000, Size: 128, Done: sim.Func(func() { done++ })})
	eng.Run()
	if m.Flushes.Value() == 0 {
		t.Error("dirty eviction must flush")
	}
	if m.BB.ArrayPrograms.Value() == 0 {
		t.Error("flush must program the flash array")
	}
	if done != 3 {
		t.Errorf("done = %d", done)
	}
}

func TestCleanEvictionDoesNotFlush(t *testing.T) {
	eng, m := testModule(2)
	done := 0
	for i := 0; i < 4; i++ {
		m.Access(&mem.Request{Addr: uint64(i) * 0x1000, Size: 128, Done: sim.Func(func() { done++ })})
		eng.Run()
	}
	if m.Flushes.Value() != 0 {
		t.Errorf("clean evictions flushed %d times", m.Flushes.Value())
	}
	if done != 4 {
		t.Errorf("done = %d", done)
	}
}

func TestPageBufferLRU(t *testing.T) {
	b := intmap.NewLRU[bool](1, 2, false)
	insert(b, 1, false)
	insert(b, 2, false)
	touch(b, 1, false) // 2 becomes LRU
	victim, dirty, evicted := insert(b, 3, false)
	if !evicted || victim != 2 || dirty {
		t.Errorf("evicted %v victim %d dirty %v, want 2 clean", evicted, victim, dirty)
	}
	if b.Len() != 2 {
		t.Errorf("len = %d", b.Len())
	}
	// Reinserting a resident page must not evict.
	if _, _, ev := insert(b, 3, true); ev {
		t.Error("reinsert evicted")
	}
	if !touch(b, 3, false) {
		t.Error("page 3 missing")
	}
}

func TestBufferHitRateUnderReuse(t *testing.T) {
	eng, m := testModule(256)
	done := 0
	// 8 pages, each accessed 16 times.
	for rep := 0; rep < 16; rep++ {
		for p := 0; p < 8; p++ {
			m.Access(&mem.Request{Addr: uint64(p) * 0x1000, Size: 128, Done: sim.Func(func() { done++ })})
		}
		eng.Run()
	}
	if done != 128 {
		t.Fatalf("done = %d", done)
	}
	if m.ReadFills.Value() != 8 {
		t.Errorf("fills = %d, want 8 (one per page)", m.ReadFills.Value())
	}
}
