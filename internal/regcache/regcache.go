// Package regcache implements ZnG's write optimization (Sections
// III-C and IV-C): the cache registers of every plane in a Z-NAND
// package are grouped into one fully-associative write cache, so the
// 128 B store traffic of the GPU — which rewrites the same flash pages
// ~65x (Fig. 5c) — is absorbed in registers and folded into far fewer
// page programs.
//
// Three register interconnects are modeled for the ablation of
// Fig. 8c/9:
//
//   - SWnet: a register reaches a remote plane by bouncing through the
//     flash-network router (two transfers that consume flash-network
//     bandwidth, contending with demand reads).
//   - FCnet: a fully-connected point-to-point web — no contention, but
//     (in hardware) enormous wiring cost.
//   - NiF (Network-in-Flash, the paper's design): shared I/O-path and
//     data-path buses per plane group plus a local network between
//     data registers, so migrations stay inside the package and off
//     the flash network.
//
// A thrashing checker watches the register miss rate; when registers
// thrash, evicted dirty pages are pinned into spare L2 ways instead of
// programming flash (Section III-C).
package regcache

import (
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/intmap"
	"zng/internal/noc"
	"zng/internal/sim"
	"zng/internal/stats"
)

// SectorBytes is the GPU store granularity.
const SectorBytes = 128

// PinSink pins dirty lines into a cache (implemented by *cache.Cache).
type PinSink interface {
	PinDirty(addr uint64) bool
}

type regEntry struct {
	vp       uint64 // the page held
	stamp    uint64
	sectors  uint64 // coverage bitmap
	regPlane int    // plane whose physical register holds the data
	live     bool
}

// pkg is one package's register file. Its registers are dense: entry
// slots, a free-slot stack and a vpage -> slot index, so absorbing a
// store allocates nothing and victim selection walks an array, not a
// map.
type pkg struct {
	id    int
	cap   int
	base  int // first global plane index of the package
	clock uint64
	regs  []regEntry
	free  []int32
	idx   *intmap.Map
	owner [][]uint64 // per-plane mode: plane in package -> resident vpages
	local *sim.Port  // NiF local network
	rr    int

	window, misses int
	thrashing      bool
}

// entry returns the register holding vp, or nil.
func (p *pkg) entry(vp uint64) *regEntry {
	if slot, ok := p.idx.Get(vp); ok {
		return &p.regs[slot]
	}
	return nil
}

func (p *pkg) insert(e regEntry) {
	n := len(p.free) - 1
	slot := p.free[n]
	p.free = p.free[:n]
	e.live = true
	p.regs[slot] = e
	p.idx.Put(e.vp, slot)
}

// remove frees vp's register and returns what it held.
func (p *pkg) remove(vp uint64) regEntry {
	slot, _ := p.idx.Get(vp)
	p.idx.Delete(vp)
	e := p.regs[slot]
	p.regs[slot] = regEntry{}
	p.free = append(p.free, slot)
	return e
}

// Cache is the backbone-wide register write cache.
type Cache struct {
	eng   *sim.Engine
	cfg   config.RegCache
	bb    *flash.Backbone
	split *ftl.Split
	mesh  *noc.Mesh // SWnet migrations; nil otherwise
	l2    PinSink   // thrash spill target; nil disables the checker

	pkgs        []*pkg
	perPlaneDir bool // one open register per plane, no grouping
	pinnedLines int

	drains sim.FreeList[drain]

	// Statistics.
	Hits        stats.Counter
	Allocs      stats.Counter
	Evictions   stats.Counter
	Programs    stats.Counter
	RMWReads    stats.Counter
	Migrations  stats.Counter
	PinnedPages stats.Counter
	ReadHits    stats.Counter
}

// Options configure New.
type Options struct {
	// PerPlaneDirect keeps the grouping off but gives each plane one
	// open register that absorbs consecutive stores to the same page —
	// the intermediate design point of the write ablation.
	PerPlaneDirect bool
	// Mesh is required for the SWnet interconnect.
	Mesh *noc.Mesh
	// L2 enables the thrashing checker's pin-to-L2 spill.
	L2 PinSink
}

// New builds the register cache over a backbone and its split FTL.
func New(eng *sim.Engine, cfg config.RegCache, bb *flash.Backbone, split *ftl.Split, opt Options) *Cache {
	c := &Cache{
		eng: eng, cfg: cfg, bb: bb, split: split,
		mesh: opt.Mesh, l2: opt.L2,
		perPlaneDir: opt.PerPlaneDirect,
	}
	planesPerPkg := bb.Cfg.DiesPerPkg * bb.Cfg.PlanesPerDie
	regs := planesPerPkg * bb.Cfg.RegsPerPlane
	for i := 0; i < bb.Packages(); i++ {
		capacity := regs
		if opt.PerPlaneDirect {
			capacity = planesPerPkg
		}
		p := &pkg{
			id:    i,
			cap:   capacity,
			base:  i * planesPerPkg,
			regs:  make([]regEntry, regs),
			idx:   intmap.New(regs),
			owner: make([][]uint64, planesPerPkg),
			local: sim.NewPort(eng, config.GBpsToBytesPerTick(cfg.LocalNetGBps), cfg.BusLat),
		}
		for s := regs - 1; s >= 0; s-- {
			p.free = append(p.free, int32(s))
		}
		c.pkgs = append(c.pkgs, p)
	}
	return c
}

func (c *Cache) vpage(va uint64) uint64 { return va / uint64(c.bb.Cfg.PageBytes) }

// fullMask covers every sector of one flash page.
func (c *Cache) fullMask() uint64 {
	return uint64(1)<<(c.bb.Cfg.PageBytes/SectorBytes) - 1
}

func (c *Cache) sectorBit(va uint64) uint64 {
	return 1 << ((va / SectorBytes) % (uint64(c.bb.Cfg.PageBytes) / SectorBytes))
}

// pkgOf returns the package whose registers absorb va's writes: the
// one containing the target page's home plane.
func (c *Cache) pkgOf(va uint64) (*pkg, int) {
	vb, _ := c.split.VBlock(va)
	plane := c.split.PlaneOf(vb)
	return c.pkgs[c.bb.PackageOf(plane)], plane
}

// ReadCheck reports whether the newest version of va's sector sits in
// a register (the read path must check before going to the array).
func (c *Cache) ReadCheck(va uint64) bool {
	p, _ := c.pkgOf(va)
	e := p.entry(c.vpage(va))
	hit := e != nil && e.sectors&c.sectorBit(va) != 0
	if hit {
		c.ReadHits.Inc()
	}
	return hit
}

// Write absorbs one sector store and delivers h.Handle(arg) when the
// store is durable in a register — immediately on a hit or clean
// allocation, or after the eviction it forced has drained to flash
// (the backpressure of a thrashing register file).
func (c *Cache) Write(va uint64, h sim.Handler, arg any) {
	p, target := c.pkgOf(va)
	vp := c.vpage(va)
	p.clock++
	p.window++

	if e := p.entry(vp); e != nil {
		e.sectors |= c.sectorBit(va)
		e.stamp = p.clock
		c.Hits.Inc()
		c.endWindow(p)
		c.eng.Schedule(c.cfg.BusLat, h, arg)
		return
	}

	c.Allocs.Inc()
	p.misses++
	c.endWindow(p)

	if c.perPlaneDir {
		// Per-plane mode: each plane's RegsPerPlane registers hold open
		// write pages privately — no grouping across planes.
		list := p.owner[target-p.base]
		if len(list) >= c.bb.Cfg.RegsPerPlane {
			// Evict the plane's LRU page.
			lru := 0
			for i, cand := range list {
				if p.entry(cand).stamp < p.entry(list[lru]).stamp {
					lru = i
				}
			}
			victim := p.remove(list[lru])
			list = append(list[:lru], list[lru+1:]...)
			c.evict(p, victim, h, arg)
		} else {
			c.eng.Schedule(c.cfg.BusLat, h, arg)
		}
		p.insert(regEntry{vp: vp, stamp: p.clock, sectors: c.sectorBit(va), regPlane: target})
		p.owner[target-p.base] = append(list, vp)
		return
	}

	// Grouped mode: fully-associative across the package's registers.
	if p.idx.Len() >= p.cap {
		c.evict(p, p.remove(lruVictim(p)), h, arg)
	} else {
		c.eng.Schedule(c.cfg.BusLat, h, arg)
	}
	planesPerPkg := c.bb.Cfg.DiesPerPkg * c.bb.Cfg.PlanesPerDie
	regPlane := p.id*planesPerPkg + p.rr%planesPerPkg
	p.rr++
	p.insert(regEntry{vp: vp, stamp: p.clock, sectors: c.sectorBit(va), regPlane: regPlane})
}

// lruVictim returns the package's least recently written page. Stamps
// are unique (one clock tick per store), so the victim is too.
func lruVictim(p *pkg) uint64 {
	var vp uint64
	oldest := ^uint64(0)
	for i := range p.regs {
		if e := &p.regs[i]; e.live && e.stamp < oldest {
			oldest, vp = e.stamp, e.vp
		}
	}
	return vp
}

// drain is one register eviction in flight: an optional read of the
// page's current version to merge a partial page (RMW), a migration to
// the home plane's register, the log program, and finally the
// completion of the store that forced it, BusLat later. It is its own
// event handler, and stage says which step just completed.
type drain struct {
	c                *Cache
	p                *pkg
	va               uint64
	regPlane, target int
	stage            drainStage
	h                sim.Handler
	arg              any
}

type drainStage uint8

const (
	merged   drainStage = iota // RMW read done: migrate
	hopped                     // SWnet first hop done: second hop
	migrated                   // at the home plane: program
	durable                    // programmed or pinned: release the store
)

// evict drains one register entry: pin to L2 under thrashing, or
// read-modify-write + migrate + program. The store that forced it
// completes BusLat after the drain.
func (c *Cache) evict(p *pkg, e regEntry, h sim.Handler, arg any) {
	c.Evictions.Inc()
	va := e.vp * uint64(c.bb.Cfg.PageBytes)
	d := c.drains.Get()
	d.c, d.p, d.va, d.regPlane, d.h, d.arg = c, p, va, e.regPlane, h, arg

	if p.thrashing && c.l2 != nil && c.pinnedLines+32 <= c.cfg.PinLines {
		// Spill the dirty page into pinned L2 lines.
		lines := c.bb.Cfg.PageBytes / 128
		for i := 0; i < lines; i++ {
			if c.l2.PinDirty(va + uint64(i)*128) {
				c.pinnedLines++
			}
		}
		c.PinnedPages.Inc()
		d.stage = durable
		c.eng.Schedule(c.cfg.BusLat, d, nil)
		return
	}

	vb, _ := c.split.VBlock(va)
	d.target = c.split.PlaneOf(vb)
	if e.sectors != c.fullMask() {
		// Partial page: read the current version to merge (RMW).
		c.RMWReads.Inc()
		loc := c.split.ReadLoc(va)
		d.stage = merged
		c.bb.Plane(loc.Plane).Read(loc.Block, loc.Page, d, nil)
		return
	}
	d.migrate()
}

// Handle implements sim.Handler for the drain's own events.
func (d *drain) Handle(any) {
	c := d.c
	switch d.stage {
	case merged:
		d.migrate()
	case hopped:
		d.stage = migrated
		c.mesh.Send(d.p.id, d.p.id, c.bb.Cfg.PageBytes, d, nil)
	case migrated:
		d.program()
	default:
		h, arg := d.h, d.arg
		c.drains.Put(d)
		c.eng.Schedule(c.cfg.BusLat, h, arg)
	}
}

// migrate moves the page to a register of its home plane over the
// configured interconnect, unless it is already there.
func (d *drain) migrate() {
	c, p := d.c, d.p
	if d.regPlane == d.target {
		d.program()
		return
	}
	c.Migrations.Inc()
	page := c.bb.Cfg.PageBytes
	d.stage = migrated
	switch c.cfg.Net {
	case config.SWnet:
		// Register -> controller buffer -> remote register: two flash-
		// network transfers through the package's router.
		d.stage = hopped
		c.mesh.Send(p.id, p.id, page, d, nil)
	case config.FCnet:
		// Dedicated point-to-point wire: latency only.
		c.eng.Schedule(c.cfg.BusLat, d, nil)
	default: // NiF
		p.local.Send(page, d, nil)
	}
}

func (d *drain) program() {
	d.c.Programs.Inc()
	d.stage = durable
	d.c.split.WritePage(d.va, d, nil)
}

// endWindow runs the thrashing checker at window boundaries.
func (c *Cache) endWindow(p *pkg) {
	if p.window < c.cfg.ThrashWindow {
		return
	}
	p.thrashing = float64(p.misses)/float64(p.window) > c.cfg.ThrashRatio
	p.window, p.misses = 0, 0
}

// DirtyPages reports pages currently held in registers.
func (c *Cache) DirtyPages() int {
	n := 0
	for _, p := range c.pkgs {
		n += p.idx.Len()
	}
	return n
}

// Thrashing reports whether any package is currently in thrash mode.
func (c *Cache) Thrashing() bool {
	for _, p := range c.pkgs {
		if p.thrashing {
			return true
		}
	}
	return false
}
