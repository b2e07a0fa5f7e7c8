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
// Without the grouping (ZnG-base and ZnG-rdopt), each plane's own
// RegsPerPlane registers (two under Table I) hold only pages homed on
// that plane. Both modes run one LRU index keyed by page whose sets are
// packages when grouped and home planes when direct: a page takes a
// register's host memory only once it is written, and an eviction
// takes its set's least recently written page without a scan.
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

// reg is what a register holds beside its page: the sectors written
// and the plane whose physical register holds the data.
type reg struct {
	sectors uint64 // coverage bitmap
	plane   int32
}

// pkg is one package's thrashing checker, NiF local network and
// round-robin register pointer.
type pkg struct {
	local *sim.Port
	rr    int

	window, misses int
	thrashing      bool
}

// Cache is the backbone-wide register write cache.
type Cache struct {
	eng   *sim.Engine
	cfg   config.RegCache
	bb    *flash.Backbone
	split *ftl.Split
	mesh  *noc.Mesh // SWnet migrations; nil otherwise
	l2    PinSink   // thrash spill target; nil disables the checker

	// regs is the backbone's register file, one LRU index keyed by page.
	// A set is the registers a page may occupy: its package's in
	// grouped mode, its home plane's RegsPerPlane in direct mode. span
	// is the number of planes a set covers.
	regs        *intmap.LRU[reg]
	span        int
	pkgs        []pkg
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
	// PerPlaneDirect keeps the grouping off: each plane's RegsPerPlane
	// registers hold pages homed on that plane only, evicting the
	// plane's least recently written page — the intermediate design
	// point of the write ablation.
	PerPlaneDirect bool
	// Mesh is required for the SWnet interconnect.
	Mesh *noc.Mesh
	// L2 enables the thrashing checker's pin-to-L2 spill.
	L2 PinSink
}

// New builds the register cache over a backbone and its split FTL.
// Registers take host memory only once a page is written to them.
func New(eng *sim.Engine, cfg config.RegCache, bb *flash.Backbone, split *ftl.Split, opt Options) *Cache {
	span := bb.Cfg.DiesPerPkg * bb.Cfg.PlanesPerDie
	if opt.PerPlaneDirect {
		span = 1
	}
	c := &Cache{
		eng: eng, cfg: cfg, bb: bb, split: split,
		mesh: opt.Mesh, l2: opt.L2,
		regs: intmap.NewLRU[reg](bb.Planes()/span, span*bb.Cfg.RegsPerPlane, false),
		span: span,
		pkgs: make([]pkg, bb.Packages()),
	}
	for i := range c.pkgs {
		c.pkgs[i].local = sim.NewPort(eng, config.GBpsToBytesPerTick(cfg.LocalNetGBps), cfg.BusLat)
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

// homePlane returns the plane va's page is programmed to.
func (c *Cache) homePlane(va uint64) int {
	vb, _ := c.split.VBlock(va)
	return c.split.PlaneOf(vb)
}

// ReadCheck reports whether the newest version of va's sector sits in
// a register (the read path must check before going to the array).
func (c *Cache) ReadCheck(va uint64) bool {
	slot, ok := c.regs.Get(c.vpage(va))
	hit := ok && c.regs.Val(slot).sectors&c.sectorBit(va) != 0
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
	target := c.homePlane(va)
	pi := c.bb.PackageOf(target)
	p := &c.pkgs[pi]
	set := target / c.span
	vp := c.vpage(va)
	p.window++

	if slot, ok := c.regs.Get(vp); ok {
		c.regs.Val(slot).sectors |= c.sectorBit(va)
		c.regs.Touch(set, slot)
		c.Hits.Inc()
		c.endWindow(p)
		c.eng.Schedule(c.cfg.BusLat, h, arg)
		return
	}

	c.Allocs.Inc()
	p.misses++
	c.endWindow(p)
	if c.regs.Full(set) {
		victim, r := c.regs.Evict(set)
		c.evict(pi, victim, r, h, arg)
	} else {
		c.eng.Schedule(c.cfg.BusLat, h, arg)
	}
	// Grouped mode hands out the package's registers round-robin; a
	// direct set's one plane is the page's home.
	regPlane := set*c.span + p.rr%c.span
	p.rr++
	c.regs.Insert(set, vp, reg{sectors: c.sectorBit(va), plane: int32(regPlane)})
}

// drain is one register eviction in flight: an optional read of the
// page's current version to merge a partial page (RMW), a migration to
// the home plane's register, the log program, and finally the
// completion of the store that forced it, BusLat later. It is its own
// event handler, and stage says which step just completed.
type drain struct {
	c                *Cache
	pkg              int
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
func (c *Cache) evict(pi int, vp uint64, r reg, h sim.Handler, arg any) {
	c.Evictions.Inc()
	va := vp * uint64(c.bb.Cfg.PageBytes)
	d := c.drains.Get()
	d.c, d.pkg, d.va, d.regPlane, d.h, d.arg = c, pi, va, int(r.plane), h, arg

	// Spill the dirty page into pinned L2 lines if all of them fit.
	if lines := c.bb.Cfg.PageBytes / 128; c.pkgs[pi].thrashing && c.l2 != nil && c.pinnedLines+lines <= c.cfg.PinLines {
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

	d.target = c.homePlane(va)
	if r.sectors != c.fullMask() {
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
		c.mesh.Send(d.pkg, d.pkg, c.bb.Cfg.PageBytes, d, nil)
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
	c := d.c
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
		c.mesh.Send(d.pkg, d.pkg, page, d, nil)
	case config.FCnet:
		// Dedicated point-to-point wire: latency only.
		c.eng.Schedule(c.cfg.BusLat, d, nil)
	default: // NiF
		c.pkgs[d.pkg].local.Send(page, d, nil)
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
func (c *Cache) DirtyPages() int { return c.regs.Len() }

// Thrashing reports whether any package is currently in thrash mode.
func (c *Cache) Thrashing() bool {
	for i := range c.pkgs {
		if c.pkgs[i].thrashing {
			return true
		}
	}
	return false
}
