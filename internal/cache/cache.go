// Package cache implements the set-associative caches of the
// simulated GPU: the per-SM L1D and the shared L2 (6 MB SRAM in the
// baselines, 24 MB STT-MRAM configured read-only in ZnG).
//
// The L2 tag array carries the ZnG extension bits of Section IV-B: a
// prefetch bit marking lines filled by the read-prefetch unit and an
// accessed bit recording demand hits, which together let the access
// monitor measure prefetch waste. Lines can also be pinned, the
// mechanism the flash-register thrashing checker uses to spill excess
// dirty data into L2.
//
// The tag store is flat. Line number g (the line address over
// LineBytes) belongs to bank b = g mod Banks and, within it, to set
// s = (g/Banks) mod Sets. Tag row g mod (Banks*Sets), which is
// b + Banks*s, holds exactly that set, so rows are set-major with the
// banks interleaved and finding a row takes one modulo. A row is Ways
// consecutive slots. The tag words have an array of their own, holding
// lineAddr|1 for a resident line and 0 for an empty way, so a lookup
// scans one contiguous row: one 64 B host cache line for an 8-way set.
// Each slot's LRU stamp and dirty/prefetch/accessed/pinned bits share a
// state word in a parallel array.
package cache

import (
	"fmt"
	"math/bits"

	"zng/internal/config"
	"zng/internal/intmap"
	"zng/internal/mem"
	"zng/internal/sim"
	"zng/internal/stats"
)

// A slot's state word: the LRU stamp above four flag bits.
const (
	stDirty    uint64 = 1 << iota
	stPrefetch        // filled by the prefetcher, ZnG tag extension
	stAccessed        // demand-hit since fill, ZnG tag extension
	stPinned

	stampShift = 4
	flagMask   = 1<<stampShift - 1
)

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
	// The tag store, slot row*Ways+way: tags holds lineAddr|1 or 0
	// (empty), state the slot's stamp and flags.
	tags, state []uint64
	rows        uint64 // Banks*Sets
	shift       uint   // log2(LineBytes)
	clock       uint64

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

// ValidateConfig reports an error when the tag store cannot index cfg:
// the line size must be a power of two of at least 2 bytes (so a line
// address's low bit is free to mark a valid tag) and there must be at
// least one set.
func ValidateConfig(cfg config.Cache) error {
	if cfg.LineBytes < 2 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes %d is not a power of two of at least 2", cfg.LineBytes)
	}
	if cfg.Sets < 1 {
		return fmt.Errorf("cache: Sets %d, want at least 1", cfg.Sets)
	}
	return nil
}

// New creates a cache in front of next. next must not be nil and cfg
// must pass ValidateConfig.
func New(eng *sim.Engine, cfg config.Cache, next mem.Memory, name string) *Cache {
	if next == nil {
		panic("cache: next level must not be nil")
	}
	if err := ValidateConfig(cfg); err != nil {
		panic(err)
	}
	nb := max(cfg.Banks, 1)
	slots := nb * cfg.Sets * cfg.Ways
	store := make([]uint64, 2*slots)
	c := &Cache{
		Name:  name,
		eng:   eng,
		cfg:   cfg,
		next:  next,
		tags:  store[:slots:slots],
		state: store[slots:],
		rows:  uint64(nb * cfg.Sets),
		shift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),

		mshrs:   make([]mem.Queue, cfg.MSHRs),
		mshrIdx: intmap.New(cfg.MSHRs),
	}
	for i := cfg.MSHRs - 1; i >= 0; i-- {
		c.mshrFree = append(c.mshrFree, int32(i))
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

// row returns the first slot of line la's tag row.
func (c *Cache) row(la uint64) int { return int((la>>c.shift)%c.rows) * c.cfg.Ways }

// find returns line la's slot, or -1 when the line is not resident.
func (c *Cache) find(la uint64) int {
	base := c.row(la)
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == la|1 {
			return base + i
		}
	}
	return -1
}

// touch stamps slot s with the current clock and sets flag bits f.
func (c *Cache) touch(s int, f uint64) {
	c.state[s] = c.clock<<stampShift | c.state[s]&flagMask | f
}

// Access services r: hit, MSHR merge, or miss to the next level.
func (c *Cache) Access(r *mem.Request) {
	// One cycle of bank occupancy models the pipelined tag lookup; the
	// outcome is resolved when the bank slot is granted.
	bank := c.banks[(r.Addr>>c.shift)%uint64(len(c.banks))]
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
	if s := c.install(la, false); s >= 0 {
		c.state[s] |= stDirty
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
	s := c.find(la)

	if r.Write {
		c.resolveWrite(r, la, s)
		return
	}

	if s >= 0 {
		c.touch(s, stAccessed)
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

// resolveWrite services store r to line la, resident in slot s (-1 if
// not).
func (c *Cache) resolveWrite(r *mem.Request, la uint64, s int) {
	if c.cfg.ReadOnly {
		// ZnG read-only L2: writes bypass the cache (they are absorbed
		// by the flash registers); a matching line is invalidated unless
		// pinned there by the thrashing checker, in which case the write
		// is absorbed by the pinned line (Section III-C).
		if s >= 0 && c.state[s]&stPinned != 0 {
			c.touch(s, stDirty)
			c.WriteHits.Inc()
			c.eng.Schedule(c.cfg.WriteLat, r, nil)
			return
		}
		if s >= 0 {
			c.tags[s] = 0
		}
		c.WriteMisses.Inc()
		c.next.Access(r)
		return
	}

	if s >= 0 {
		c.WriteHits.Inc()
		if c.cfg.WriteBack {
			c.touch(s, stAccessed|stDirty)
			c.eng.Schedule(c.cfg.WriteLat, r, nil)
		} else {
			// Write-through: update the line, forward the store.
			c.touch(s, stAccessed)
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
		if c.find(la) >= 0 {
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

// install places line la in its row, evicting the least recently used
// unpinned way when the row is full. It returns la's slot, or -1 when
// every way is pinned and the line was bypassed.
func (c *Cache) install(la uint64, asPrefetch bool) int {
	c.clock++
	base := c.row(la)
	s := -1
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == la|1 {
			// Already present (e.g. prefetch raced a demand fill): merge bits.
			var f uint64
			if !asPrefetch {
				f = stAccessed
			}
			c.touch(base+i, f)
			return base + i
		}
		if t == 0 && s < 0 {
			s = base + i
		}
	}
	if s < 0 {
		oldest := ^uint64(0)
		for i, st := range c.state[base : base+c.cfg.Ways] {
			if st&stPinned == 0 && st>>stampShift < oldest {
				oldest, s = st>>stampShift, base+i
			}
		}
		if s < 0 {
			return -1 // every way pinned: bypass
		}
		c.evict(s)
	}
	fresh := stAccessed
	if asPrefetch {
		fresh = stPrefetch
	}
	c.tags[s] = la | 1
	c.state[s] = c.clock<<stampShift | fresh
	return s
}

// evict retires the line in slot s; the caller overwrites the slot.
func (c *Cache) evict(s int) {
	la, st := c.tags[s]&^1, c.state[s]
	c.Evictions.Inc()
	if st&stPrefetch != 0 {
		c.PrefEvicted.Inc()
		if st&stAccessed == 0 {
			c.PrefUnused.Inc()
		}
	}
	if st&stDirty != 0 && c.cfg.WriteBack {
		c.Writebacks.Inc()
		wb := c.request(la, written{c})
		wb.Write = true
		c.next.Access(wb)
	}
	if st&stPinned != 0 {
		c.PinnedNow--
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictInfo{Addr: la, Prefetch: st&stPrefetch != 0, Accessed: st&stAccessed != 0, Dirty: st&stDirty != 0})
	}
}

// InstallPrefetch installs a prefetched line (prefetch bit set,
// accessed bit clear). It reports whether the line was installed.
func (c *Cache) InstallPrefetch(addr uint64) bool {
	return c.install(c.lineAddr(addr), true) >= 0
}

// Contains reports whether addr's line is resident (for tests and the
// prefetch cutoff).
func (c *Cache) Contains(addr uint64) bool {
	return c.find(c.lineAddr(addr)) >= 0
}

// PinDirty installs addr's line as pinned dirty data — the thrashing
// checker's L2 spill (Section III-C). It reports whether a way was
// available.
func (c *Cache) PinDirty(addr uint64) bool {
	s := c.install(c.lineAddr(addr), false)
	if s < 0 {
		return false
	}
	if c.state[s]&stPinned == 0 {
		c.PinnedNow++
	}
	c.state[s] |= stPinned | stDirty
	return true
}

// Unpin releases a pinned line so normal replacement applies again.
func (c *Cache) Unpin(addr uint64) {
	if s := c.find(c.lineAddr(addr)); s >= 0 && c.state[s]&stPinned != 0 {
		c.state[s] &^= stPinned
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
