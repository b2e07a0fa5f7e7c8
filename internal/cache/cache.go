// Package cache implements the set-associative caches of the
// simulated GPU: the per-SM L1D, the shared L2 (6 MB SRAM in the
// baselines, 24 MB STT-MRAM configured read-only in ZnG), and the
// page-granularity DRAM data buffer of the HybridGPU SSD module.
//
// The L2 tag array carries the ZnG extension bits of Section IV-B: a
// prefetch bit marking lines filled by the read-prefetch unit and an
// accessed bit recording demand hits, which together let the access
// monitor measure prefetch waste. Lines can also be pinned, the
// mechanism the flash-register thrashing checker uses to spill excess
// dirty data into L2.
package cache

import (
	"zng/internal/config"
	"zng/internal/intmap"
	"zng/internal/mem"
	"zng/internal/sim"
	"zng/internal/stats"
)

type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool // filled by the prefetcher, ZnG tag extension
	accessed bool // demand-hit since fill, ZnG tag extension
	pinned   bool
	stamp    uint64 // LRU timestamp
}

// EvictInfo describes an evicted line for the access monitor.
type EvictInfo struct {
	Addr     uint64
	Prefetch bool
	Accessed bool
	Dirty    bool
}

// Cache is one cache level. It implements mem.Memory.
type Cache struct {
	Name string

	eng  *sim.Engine
	cfg  config.Cache
	next mem.Memory

	banks []*sim.Resource
	sets  [][]line // [bank*cfg.Sets + set][way]
	clock uint64

	// The MSHR file is dense: cfg.MSHRs slots, each queueing the reads
	// waiting on its line in arrival order, a free-slot stack and a
	// line -> slot index, so a miss allocates nothing.
	mshrs    []mem.Queue
	mshrFree []int32
	mshrIdx  *intmap.Map
	overflow mem.Queue // misses waiting for a free MSHR

	// reqs recycles the fills and write-backs this level issues.
	reqs sim.FreeList[mem.Request]

	// OnEvict, if set, observes every eviction (the ZnG access monitor).
	OnEvict func(EvictInfo)
	// OnDemandMiss, if set, observes demand read misses (the ZnG
	// predictor's cutoff test hooks here).
	OnDemandMiss func(*mem.Request)

	// Statistics.
	Hits, Misses, MergedMisses stats.Counter
	WriteHits, WriteMisses     stats.Counter
	Evictions, Writebacks      stats.Counter
	PrefEvicted, PrefUnused    stats.Counter
	PinnedNow                  int
}

// New creates a cache in front of next. next must not be nil.
func New(eng *sim.Engine, cfg config.Cache, next mem.Memory, name string) *Cache {
	if next == nil {
		panic("cache: next level must not be nil")
	}
	nb := cfg.Banks
	if nb < 1 {
		nb = 1
	}
	c := &Cache{
		Name: name,
		eng:  eng,
		cfg:  cfg,
		next: next,
		sets: make([][]line, nb*cfg.Sets),

		mshrs:   make([]mem.Queue, cfg.MSHRs),
		mshrIdx: intmap.New(cfg.MSHRs),
	}
	for i := cfg.MSHRs - 1; i >= 0; i-- {
		c.mshrFree = append(c.mshrFree, int32(i))
	}
	lines := make([]line, len(c.sets)*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.banks = make([]*sim.Resource, nb)
	for i := range c.banks {
		c.banks[i] = sim.NewResource(eng)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() config.Cache { return c.cfg }

func (c *Cache) lineAddr(addr uint64) uint64 { return mem.LineAddr(addr, c.cfg.LineBytes) }

func (c *Cache) locate(lineAddr uint64) (bankIdx int, setIdx int) {
	g := lineAddr / uint64(c.cfg.LineBytes)
	nb := uint64(len(c.banks))
	bankIdx = int(g % nb)
	setIdx = int((g / nb) % uint64(c.cfg.Sets))
	return bankIdx, setIdx
}

func (c *Cache) set(lineAddr uint64) []line {
	b, s := c.locate(lineAddr)
	return c.sets[b*c.cfg.Sets+s]
}

// Access services r: hit, MSHR merge, or miss to the next level.
func (c *Cache) Access(r *mem.Request) {
	la := c.lineAddr(r.Addr)
	bankIdx, _ := c.locate(la)
	bank := c.banks[bankIdx]

	// One cycle of bank occupancy models the pipelined tag lookup; the
	// outcome is resolved when the bank slot is granted.
	bank.Acquire(1, lookup{c}, r)
}

// The cache's event handlers. Each wraps the one pointer, so passing
// it as a sim.Handler allocates nothing.
type (
	// lookup resolves a request once its bank grants the tag lookup.
	lookup struct{ c *Cache }
	// filled completes a read miss's line fill.
	filled struct{ c *Cache }
	// allocated completes a write-allocate fill (mem.Request.Cause is
	// the store).
	allocated struct{ c *Cache }
	// written recycles a completed write-back.
	written struct{ c *Cache }
)

func (h lookup) Handle(arg any) {
	r := arg.(*mem.Request)
	h.c.resolve(r, h.c.lineAddr(r.Addr))
}

func (h filled) Handle(arg any) {
	f := arg.(*mem.Request)
	la := f.Addr
	h.c.reqs.Put(f)
	h.c.fill(la)
}

func (h allocated) Handle(arg any) {
	c, f := h.c, arg.(*mem.Request)
	la, r := f.Addr, f.Cause
	c.reqs.Put(f)
	c.install(la, false)
	if w := findLine(c.set(la), la); w >= 0 {
		c.set(la)[w].dirty = true
	}
	c.eng.Schedule(c.cfg.WriteLat, r, nil)
}

func (h written) Handle(arg any) { h.c.reqs.Put(arg.(*mem.Request)) }

// request returns a recycled request for a fill or write-back of line
// la.
func (c *Cache) request(la uint64, done sim.Handler) *mem.Request {
	f := c.reqs.Get()
	f.Addr, f.Size, f.Done = la, c.cfg.LineBytes, done
	return f
}

func (c *Cache) resolve(r *mem.Request, la uint64) {
	c.clock++
	set := c.set(la)
	way := findLine(set, la)

	if r.Write {
		c.resolveWrite(r, la, set, way)
		return
	}

	if way >= 0 {
		ln := &set[way]
		ln.accessed = true
		ln.stamp = c.clock
		c.Hits.Inc()
		c.eng.Schedule(c.cfg.ReadLat, r, nil)
		return
	}

	// Read miss.
	c.Misses.Inc()
	if !r.Prefetch && c.OnDemandMiss != nil {
		c.OnDemandMiss(r)
	}
	if slot, ok := c.mshrIdx.Get(la); ok {
		c.MergedMisses.Inc()
		c.mshrs[slot].Push(r)
		return
	}
	if c.mshrIdx.Len() >= c.cfg.MSHRs {
		c.overflow.Push(r)
		return
	}
	c.issueMiss(r, la)
}

func (c *Cache) resolveWrite(r *mem.Request, la uint64, set []line, way int) {
	if c.cfg.ReadOnly {
		// ZnG read-only L2: writes bypass the cache (they are absorbed
		// by the flash registers); a matching line is invalidated unless
		// pinned there by the thrashing checker, in which case the write
		// is absorbed by the pinned line (Section III-C).
		if way >= 0 && set[way].pinned {
			set[way].dirty = true
			set[way].stamp = c.clock
			c.WriteHits.Inc()
			c.eng.Schedule(c.cfg.WriteLat, r, nil)
			return
		}
		if way >= 0 {
			set[way].valid = false
		}
		c.WriteMisses.Inc()
		c.next.Access(r)
		return
	}

	if way >= 0 {
		ln := &set[way]
		ln.stamp = c.clock
		ln.accessed = true
		c.WriteHits.Inc()
		if c.cfg.WriteBack {
			ln.dirty = true
			c.eng.Schedule(c.cfg.WriteLat, r, nil)
		} else {
			// Write-through: update the line, forward the store.
			c.next.Access(r)
		}
		return
	}

	c.WriteMisses.Inc()
	if !c.cfg.WriteBack {
		// Write-through, no-allocate (GPU L1 policy).
		c.next.Access(r)
		return
	}
	// Write-allocate: fetch the line, then dirty it.
	fill := c.request(la, allocated{c})
	fill.PC, fill.Warp, fill.SM, fill.Cause = r.PC, r.Warp, r.SM, r
	c.next.Access(fill)
}

func (c *Cache) issueMiss(r *mem.Request, la uint64) {
	n := len(c.mshrFree) - 1
	slot := c.mshrFree[n]
	c.mshrFree = c.mshrFree[:n]
	c.mshrs[slot].Push(r)
	c.mshrIdx.Put(la, slot)
	fill := c.request(la, filled{c})
	fill.PC, fill.Warp, fill.SM, fill.Prefetch = r.PC, r.Warp, r.SM, r.Prefetch
	c.next.Access(fill)
}

// fill completes an outstanding miss: installs the line, wakes the
// waiters, and admits overflow misses into the freed MSHR.
func (c *Cache) fill(la uint64) {
	var waiters mem.Queue
	if slot, ok := c.mshrIdx.Get(la); ok {
		c.mshrIdx.Delete(la)
		waiters = c.mshrs[slot]
		c.mshrs[slot] = mem.Queue{}
		c.mshrFree = append(c.mshrFree, slot)
	}
	c.install(la, false)
	for w := waiters.Pop(); w != nil; w = waiters.Pop() {
		c.eng.Schedule(c.cfg.ReadLat, w, nil)
	}
	c.drainOverflow()
}

func (c *Cache) drainOverflow() {
	for c.overflow.Len() > 0 && c.mshrIdx.Len() < c.cfg.MSHRs {
		r := c.overflow.Pop()
		la := c.lineAddr(r.Addr)
		if w := findLine(c.set(la), la); w >= 0 {
			// Filled while queued: now a hit.
			c.Hits.Inc()
			c.eng.Schedule(c.cfg.ReadLat, r, nil)
			continue
		}
		if slot, ok := c.mshrIdx.Get(la); ok {
			c.mshrs[slot].Push(r)
			continue
		}
		c.issueMiss(r, la)
	}
}

// install places lineAddr into its set, evicting if necessary.
// Returns false if every way is pinned and the line was bypassed.
func (c *Cache) install(la uint64, asPrefetch bool) bool {
	c.clock++
	set := c.set(la)
	if w := findLine(set, la); w >= 0 {
		// Already present (e.g. prefetch raced a demand fill): merge bits.
		if !asPrefetch {
			set[w].accessed = true
		}
		set[w].stamp = c.clock
		return true
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		var oldest uint64 = ^uint64(0)
		for i := range set {
			if set[i].pinned {
				continue
			}
			if set[i].stamp < oldest {
				oldest = set[i].stamp
				victim = i
			}
		}
	}
	if victim < 0 {
		return false // every way pinned: bypass
	}
	if set[victim].valid {
		c.evict(&set[victim])
	}
	set[victim] = line{
		tag: la, valid: true,
		prefetch: asPrefetch, accessed: !asPrefetch,
		stamp: c.clock,
	}
	return true
}

func (c *Cache) evict(ln *line) {
	c.Evictions.Inc()
	if ln.prefetch {
		c.PrefEvicted.Inc()
		if !ln.accessed {
			c.PrefUnused.Inc()
		}
	}
	if ln.dirty && c.cfg.WriteBack {
		c.Writebacks.Inc()
		wb := c.request(ln.tag, written{c})
		wb.Write = true
		c.next.Access(wb)
	}
	if ln.pinned {
		c.PinnedNow--
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictInfo{Addr: ln.tag, Prefetch: ln.prefetch, Accessed: ln.accessed, Dirty: ln.dirty})
	}
}

// InstallPrefetch installs a prefetched line (prefetch bit set,
// accessed bit clear). It reports whether the line was installed.
func (c *Cache) InstallPrefetch(addr uint64) bool {
	return c.install(c.lineAddr(addr), true)
}

// Contains reports whether addr's line is resident (for tests and the
// prefetch cutoff).
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	return findLine(c.set(la), la) >= 0
}

// PinDirty installs addr's line as pinned dirty data — the thrashing
// checker's L2 spill (Section III-C). It reports whether a way was
// available.
func (c *Cache) PinDirty(addr uint64) bool {
	la := c.lineAddr(addr)
	if !c.install(la, false) {
		return false
	}
	set := c.set(la)
	w := findLine(set, la)
	if !set[w].pinned {
		set[w].pinned = true
		c.PinnedNow++
	}
	set[w].dirty = true
	return true
}

// Unpin releases a pinned line so normal replacement applies again.
func (c *Cache) Unpin(addr uint64) {
	la := c.lineAddr(addr)
	set := c.set(la)
	if w := findLine(set, la); w >= 0 && set[w].pinned {
		set[w].pinned = false
		c.PinnedNow--
	}
}

// HitRate reports demand read hit rate.
func (c *Cache) HitRate() float64 {
	t := c.Hits.Value() + c.Misses.Value()
	if t == 0 {
		return 0
	}
	return float64(c.Hits.Value()) / float64(t)
}

func findLine(set []line, la uint64) int {
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return i
		}
	}
	return -1
}
