package mmu

import (
	"testing"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
)

// translate issues one translation of va and calls fn with the
// request's address when it is handed off.
func translate(u *Unit, sm int, va uint64, fn func(pa uint64)) {
	r := &mem.Request{Addr: va}
	u.Request(sm, r, sim.Func(func() { fn(r.Addr) }))
}

func newUnit(eng *sim.Engine, walkLat sim.Tick) *Unit {
	cfg := config.Default().MMU
	return New(eng, cfg, 2, walkLat)
}

func TestTranslationMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 400)
	var pa uint64
	translate(u, 0, 0x4000, func(p uint64) { pa = p })
	eng.Run()
	missTime := eng.Now()
	if pa != 0x4000 {
		t.Fatalf("address handed off as %x, want 0x4000 unchanged", pa)
	}
	if missTime < 400 {
		t.Errorf("walk completed at %d, want >= 400", missTime)
	}
	if u.Walks.Value() != 1 {
		t.Errorf("walks = %d", u.Walks.Value())
	}

	start := eng.Now()
	translate(u, 0, 0x4008, func(p uint64) { pa = p }) // same page: L1 TLB hit
	eng.Run()
	if eng.Now()-start > 5 {
		t.Errorf("TLB hit took %d ticks", eng.Now()-start)
	}
	if u.L1Hits.Value() != 1 {
		t.Errorf("l1 hits = %d", u.L1Hits.Value())
	}
}

func TestWalkCacheSharedAcrossSMs(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 400)
	translate(u, 0, 0x8000, func(uint64) {})
	eng.Run()
	start := eng.Now()
	// SM 1 misses its own L1 TLB but hits the shared walk cache.
	translate(u, 1, 0x8000, func(uint64) {})
	eng.Run()
	if u.WalkCacheHits.Value() != 1 {
		t.Errorf("walk cache hits = %d, want 1", u.WalkCacheHits.Value())
	}
	if d := eng.Now() - start; d < 5 || d >= 400 {
		t.Errorf("walk-cache path took %d, want between L1 hit and full walk", d)
	}
}

func TestWalkerConcurrencyLimit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default().MMU
	cfg.WalkerThreads = 2
	u := New(eng, cfg, 1, 100)
	done := 0
	for i := 0; i < 4; i++ {
		translate(u, 0, uint64(i)<<12<<8, func(uint64) { done++ }) // distinct pages
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// 4 walks on 2 threads of 100 ticks: finish at 200, not 100.
	if eng.Now() < 200 {
		t.Errorf("4 walks finished at %d; concurrency limit not enforced", eng.Now())
	}
}

func TestDBMTFastWalk(t *testing.T) {
	// ZnG mode: walk latency is the 4-cycle DBMT lookup.
	eng := sim.NewEngine()
	u := newUnit(eng, config.Default().MMU.DBMTLatency)
	translate(u, 0, 0xA000, func(uint64) {})
	eng.Run()
	if eng.Now() > 20 {
		t.Errorf("DBMT walk took %d ticks, want a handful", eng.Now())
	}
}

func TestL1TLBEviction(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default().MMU
	cfg.L1TLBEntries = 2
	cfg.WalkCacheEnt = 2
	u := New(eng, cfg, 1, 50)
	for i := 0; i < 3; i++ { // 3 pages through a 2-entry TLB
		translate(u, 0, uint64(i)*PageBytes, func(uint64) {})
		eng.Run()
	}
	translate(u, 0, 0, func(uint64) {}) // page 0 evicted from both TLB and walk cache
	eng.Run()
	if u.Walks.Value() != 4 {
		t.Errorf("walks = %d, want 4 (page 0 re-walked)", u.Walks.Value())
	}
}

func TestFaultPath(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 10)
	resident := map[uint64]bool{}
	var pending []func()
	u.Fault = func(va uint64, resume sim.Handler) bool {
		if resident[va/PageBytes] {
			return false
		}
		pending = append(pending, func() {
			resident[va/PageBytes] = true
			resume.Handle(nil)
		})
		return true
	}
	done := false
	translate(u, 0, 0xC000, func(uint64) { done = true })
	eng.Run()
	if done {
		t.Fatal("request completed without fault service")
	}
	if u.Faults.Value() != 1 {
		t.Fatalf("faults = %d", u.Faults.Value())
	}
	// Service the fault.
	for _, f := range pending {
		f()
	}
	eng.Run()
	if !done {
		t.Fatal("request did not resume after fault service")
	}
}

func TestInvalidatePage(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 100)
	translate(u, 0, 0xE000, func(uint64) {})
	eng.Run()
	u.InvalidatePage(0xE000 / PageBytes)
	translate(u, 0, 0xE000, func(uint64) {})
	eng.Run()
	if u.Walks.Value() != 2 {
		t.Errorf("walks = %d, want 2 after invalidate", u.Walks.Value())
	}
}

func TestL1HitRate(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 10)
	translate(u, 0, 0, func(uint64) {})
	eng.Run()
	for i := 0; i < 3; i++ {
		translate(u, 0, uint64(i*8), func(uint64) {})
		eng.Run()
	}
	if hr := u.L1HitRate(); hr != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", hr)
	}
}
