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
// The tag store is flat: one 8-byte word per way. Line number g (the
// line address over LineBytes) belongs to bank b = g mod Banks and,
// within it, to set s = (g/Banks) mod Sets. Tag row g mod (Banks*Sets),
// which is b + Banks*s, holds exactly that set, so rows are set-major
// with the banks interleaved and finding a row takes one modulo. A row
// is Ways consecutive words, so all of an 8-way set (tags, flags and
// replacement state) is one 64 B host cache line.
//
// A way's word holds, from the top, the line number g, the way's LRU
// rank within its row, the dirty, prefetch, accessed and pinned flags,
// and a valid bit. The zero word is an empty way, so a new cache is all
// zeros and rows a run never touches are never written. The rank
// counts the resident ways of the row used more recently, so the k
// resident ways of a row hold ranks 0 (most recent) to k-1:
//
//   - a hit or re-install ages every way ranked below it by one and
//     takes rank 0;
//   - an install into an empty way ages every resident way;
//   - an install over a victim (the unpinned way of highest rank) ages
//     the ways ranked below the victim and takes rank 0;
//   - a write that invalidates a line in the read-only L2 empties its
//     way and closes the gap: the ranks above the way's fall by one.
//
// That is exactly the order of a global LRU clock stamped on every use,
// without the clock: the rank field's 7 bits order up to 128 ways, and
// the tag field's 52 bits hold any line number below 2^52.
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

// A way's word, from bit 0 up: the valid bit, four flag bits, the LRU
// rank and the line number.
const (
	wValid uint64 = 1 << iota
	wDirty
	wPrefetch // filled by the prefetcher, ZnG tag extension
	wAccessed // demand-hit since fill, ZnG tag extension
	wPinned

	rankShift = 5
	rankBits  = 7
	tagShift  = rankShift + rankBits

	rankOne  = 1 << rankShift
	rankMask = (1<<rankBits - 1) << rankShift
	// keyMask keeps the line number and the valid bit: a word matches
	// line g when word&keyMask == g<<tagShift|wValid.
	keyMask = ^uint64(1<<tagShift-1) | wValid

	maxLine = 1<<(64-tagShift) - 1 // the widest line number the tag field holds
)

// The rank field must order config.MaxWays ways.
var _ [1<<rankBits - config.MaxWays]struct{}

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
	// The tag store: way row*Ways+i's word, 0 when the way is empty.
	words []uint64
	rows  uint64 // Banks*Sets
	shift uint   // log2(LineBytes)

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

	// Statistics.
	Hits, Misses, MergedMisses stats.Counter
	WriteHits, WriteMisses     stats.Counter
	Evictions, Writebacks      stats.Counter
	PrefEvicted, PrefUnused    stats.Counter
	PinnedNow                  int
}

// New creates a cache in front of next. next must not be nil and cfg
// must be valid (config.Config.Validate).
func New(eng *sim.Engine, cfg config.Cache, next mem.Memory, name string) *Cache {
	if next == nil {
		panic("cache: next level must not be nil")
	}
	c := &Cache{
		Name:  name,
		eng:   eng,
		cfg:   cfg,
		next:  next,
		words: make([]uint64, cfg.Lines()),
		rows:  uint64(cfg.Banks * cfg.Sets),
		shift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),

		mshrs:   make([]mem.Queue, cfg.MSHRs),
		mshrIdx: intmap.New(cfg.MSHRs),
	}
	for i := cfg.MSHRs - 1; i >= 0; i-- {
		c.mshrFree = append(c.mshrFree, int32(i))
	}
	c.banks = make([]*sim.Resource, cfg.Banks)
	for i := range c.banks {
		c.banks[i] = sim.NewResource(eng)
	}
	return c
}

func (c *Cache) lineAddr(addr uint64) uint64 { return mem.LineAddr(addr, c.cfg.LineBytes) }

// locate returns line la's tag row and the key its word carries. A line
// number too wide for the tag field would alias a narrower one, so it
// panics instead.
func (c *Cache) locate(la uint64) (row []uint64, key uint64) {
	g := la >> c.shift
	if g > maxLine {
		panic(fmt.Sprintf("cache %s: line address %#x is too wide for the %d-bit tag field", c.Name, la, 64-tagShift))
	}
	base := int(g%c.rows) * c.cfg.Ways
	return c.words[base : base+c.cfg.Ways : base+c.cfg.Ways], g<<tagShift | wValid
}

// find returns line la's row and its way there, -1 when the line is
// not resident.
func (c *Cache) find(la uint64) (row []uint64, way int) {
	row, key := c.locate(la)
	for i, w := range row {
		if w&keyMask == key {
			return row, i
		}
	}
	return row, -1
}

// age adds one to the rank of every resident way in row ranked below
// r, a rank in field position (shifted left by rankShift).
func age(row []uint64, r uint64) {
	for i, w := range row {
		if w&wValid != 0 && w&rankMask < r {
			row[i] = w + rankOne
		}
	}
}

// touch makes resident way i its row's most recently used and sets flag
// bits f.
func touch(row []uint64, i int, f uint64) {
	age(row, row[i]&rankMask)
	row[i] = row[i]&^rankMask | f
}

// invalidate empties resident way i, and the ranks above its rank fall
// by one.
func invalidate(row []uint64, i int) {
	r := row[i] & rankMask
	row[i] = 0
	for j, w := range row {
		if w&wValid != 0 && w&rankMask > r {
			row[j] = w - rankOne
		}
	}
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
	if row, i := c.install(la, false); i >= 0 {
		row[i] |= wDirty
	}
	c.eng.Schedule(c.cfg.WriteLat, r.Done, r)
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
	row, i := c.find(la)

	if r.Write {
		c.resolveWrite(r, la, row, i)
		return
	}

	if i >= 0 {
		touch(row, i, wAccessed)
		c.Hits.Inc()
		c.eng.Schedule(c.cfg.ReadLat, r.Done, r)
		return
	}

	// Read miss.
	c.Misses.Inc()
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

// resolveWrite services store r to line la, resident in way i of row
// (-1 if not).
func (c *Cache) resolveWrite(r *mem.Request, la uint64, row []uint64, i int) {
	if c.cfg.ReadOnly {
		// ZnG read-only L2: writes bypass the cache (they are absorbed
		// by the flash registers); a matching line is invalidated unless
		// pinned there by the thrashing checker, in which case the write
		// is absorbed by the pinned line (Section III-C).
		if i >= 0 && row[i]&wPinned != 0 {
			touch(row, i, wDirty)
			c.WriteHits.Inc()
			c.eng.Schedule(c.cfg.WriteLat, r.Done, r)
			return
		}
		if i >= 0 {
			invalidate(row, i)
		}
		c.WriteMisses.Inc()
		c.next.Access(r)
		return
	}

	if i >= 0 {
		c.WriteHits.Inc()
		if c.cfg.WriteBack {
			touch(row, i, wAccessed|wDirty)
			c.eng.Schedule(c.cfg.WriteLat, r.Done, r)
		} else {
			// Write-through: update the line, forward the store.
			touch(row, i, wAccessed)
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
		c.eng.Schedule(c.cfg.ReadLat, w.Done, w)
	}
	c.drainOverflow()
}

func (c *Cache) drainOverflow() {
	for c.overflow.Len() > 0 && c.mshrIdx.Len() < c.cfg.MSHRs {
		r := c.overflow.Pop()
		la := c.lineAddr(r.Addr)
		if _, i := c.find(la); i >= 0 {
			// Filled while queued: now a hit.
			c.Hits.Inc()
			c.eng.Schedule(c.cfg.ReadLat, r.Done, r)
			continue
		}
		if slot, ok := c.mshrIdx.Get(la); ok {
			c.mshrs[slot].Push(r)
			continue
		}
		c.issueMiss(r, la)
	}
}

// install places line la in its row, evicting the unpinned way of
// highest rank when the row is full. It returns the row and la's way
// there, -1 when every way is pinned and the line was bypassed.
func (c *Cache) install(la uint64, asPrefetch bool) (row []uint64, way int) {
	row, key := c.locate(la)
	free, victim, vr := -1, -1, uint64(0) // vr: the victim's rank field
	for i, w := range row {
		switch {
		case w&keyMask == key:
			// Already present (e.g. prefetch raced a demand fill): merge bits.
			var f uint64
			if !asPrefetch {
				f = wAccessed
			}
			touch(row, i, f)
			return row, i
		case w == 0:
			if free < 0 {
				free = i
			}
		case w&wPinned == 0 && (victim < 0 || w&rankMask > vr):
			victim, vr = i, w&rankMask
		}
	}
	fresh := key | wAccessed
	if asPrefetch {
		fresh = key | wPrefetch
	}
	switch {
	case free >= 0:
		age(row, ^uint64(0)) // every resident way
		row[free] = fresh
		return row, free
	case victim < 0:
		return row, -1 // every way pinned: bypass
	}
	c.evict(row[victim])
	age(row, vr)
	row[victim] = fresh
	return row, victim
}

// evict retires the line word w holds; the caller overwrites its way.
func (c *Cache) evict(w uint64) {
	la := w >> tagShift << c.shift
	c.Evictions.Inc()
	if w&wPrefetch != 0 {
		c.PrefEvicted.Inc()
		if w&wAccessed == 0 {
			c.PrefUnused.Inc()
		}
	}
	if w&wDirty != 0 && c.cfg.WriteBack {
		c.Writebacks.Inc()
		wb := c.request(la, written{c})
		wb.Write = true
		c.next.Access(wb)
	}
	if w&wPinned != 0 {
		c.PinnedNow--
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictInfo{Addr: la, Prefetch: w&wPrefetch != 0, Accessed: w&wAccessed != 0, Dirty: w&wDirty != 0})
	}
}

// InstallPrefetch installs a prefetched line (prefetch bit set,
// accessed bit clear). It reports whether the line was installed.
func (c *Cache) InstallPrefetch(addr uint64) bool {
	_, i := c.install(c.lineAddr(addr), true)
	return i >= 0
}

// Contains reports whether addr's line is resident (for tests and the
// prefetch cutoff).
func (c *Cache) Contains(addr uint64) bool {
	_, i := c.find(c.lineAddr(addr))
	return i >= 0
}

// PinDirty installs addr's line as pinned dirty data — the thrashing
// checker's L2 spill (Section III-C). It reports whether a way was
// available.
func (c *Cache) PinDirty(addr uint64) bool {
	row, i := c.install(c.lineAddr(addr), false)
	if i < 0 {
		return false
	}
	if row[i]&wPinned == 0 {
		c.PinnedNow++
	}
	row[i] |= wPinned | wDirty
	return true
}

// Unpin releases a pinned line so normal replacement applies again.
func (c *Cache) Unpin(addr uint64) {
	if row, i := c.find(c.lineAddr(addr)); i >= 0 && row[i]&wPinned != 0 {
		row[i] &^= wPinned
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
