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

// stampCache is the register file the backbone-wide LRU index
// replaced, kept as the differential tests' reference: each package
// preallocates its registers, a free-slot stack and a page index;
// every store stamps its register from the package's clock, a grouped
// eviction scans the package's registers for the oldest stamp, and a
// direct one scans the home plane's owner list. Stamps are unique, so
// both scans pick the least recently written page. Its pin admission
// counts the page's lines, as the fixed check does; for the 4 KiB pages
// the tests use that is the 32 lines the old check assumed.
type stampCache struct {
	eng   *sim.Engine
	cfg   config.RegCache
	bb    *flash.Backbone
	split *ftl.Split
	mesh  *noc.Mesh
	l2    PinSink

	pkgs        []*stampPkg
	perPlaneDir bool
	pinnedLines int

	Hits, Allocs, Evictions, Programs stats.Counter
	RMWReads, Migrations, PinnedPages stats.Counter
	ReadHits                          stats.Counter
	victims                           []uint64 // evicted pages, in order
}

type stampEntry struct {
	vp       uint64
	stamp    uint64
	sectors  uint64
	regPlane int
	live     bool
}

type stampPkg struct {
	id, cap, base int
	clock         uint64
	regs          []stampEntry
	free          []int32
	idx           *intmap.Map
	owner         [][]uint64
	local         *sim.Port
	rr            int

	window, misses int
	thrashing      bool
}

func (p *stampPkg) entry(vp uint64) *stampEntry {
	if slot, ok := p.idx.Get(vp); ok {
		return &p.regs[slot]
	}
	return nil
}

func (p *stampPkg) insert(e stampEntry) {
	n := len(p.free) - 1
	slot := p.free[n]
	p.free = p.free[:n]
	e.live = true
	p.regs[slot] = e
	p.idx.Put(e.vp, slot)
}

func (p *stampPkg) remove(vp uint64) stampEntry {
	slot, _ := p.idx.Get(vp)
	p.idx.Delete(vp)
	e := p.regs[slot]
	p.regs[slot] = stampEntry{}
	p.free = append(p.free, slot)
	return e
}

func newStampCache(eng *sim.Engine, cfg config.RegCache, bb *flash.Backbone, split *ftl.Split, opt Options) *stampCache {
	c := &stampCache{eng: eng, cfg: cfg, bb: bb, split: split, mesh: opt.Mesh, l2: opt.L2, perPlaneDir: opt.PerPlaneDirect}
	planesPerPkg := bb.Cfg.DiesPerPkg * bb.Cfg.PlanesPerDie
	regs := planesPerPkg * bb.Cfg.RegsPerPlane
	for i := 0; i < bb.Packages(); i++ {
		capacity := regs
		if opt.PerPlaneDirect {
			capacity = planesPerPkg
		}
		p := &stampPkg{
			id: i, cap: capacity, base: i * planesPerPkg,
			regs:  make([]stampEntry, regs),
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

func (c *stampCache) vpage(va uint64) uint64 { return va / uint64(c.bb.Cfg.PageBytes) }

func (c *stampCache) fullMask() uint64 {
	return uint64(1)<<(c.bb.Cfg.PageBytes/SectorBytes) - 1
}

func (c *stampCache) sectorBit(va uint64) uint64 {
	return 1 << ((va / SectorBytes) % (uint64(c.bb.Cfg.PageBytes) / SectorBytes))
}

func (c *stampCache) pkgOf(va uint64) (*stampPkg, int) {
	vb, _ := c.split.VBlock(va)
	plane := c.split.PlaneOf(vb)
	return c.pkgs[c.bb.PackageOf(plane)], plane
}

func (c *stampCache) ReadCheck(va uint64) bool {
	p, _ := c.pkgOf(va)
	e := p.entry(c.vpage(va))
	hit := e != nil && e.sectors&c.sectorBit(va) != 0
	if hit {
		c.ReadHits.Inc()
	}
	return hit
}

func (c *stampCache) DirtyPages() int {
	n := 0
	for _, p := range c.pkgs {
		n += p.idx.Len()
	}
	return n
}

func (c *stampCache) Write(va uint64, h sim.Handler, arg any) {
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
		list := p.owner[target-p.base]
		if len(list) >= c.bb.Cfg.RegsPerPlane {
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
		p.insert(stampEntry{vp: vp, stamp: p.clock, sectors: c.sectorBit(va), regPlane: target})
		p.owner[target-p.base] = append(list, vp)
		return
	}

	if p.idx.Len() >= p.cap {
		c.evict(p, p.remove(stampVictim(p)), h, arg)
	} else {
		c.eng.Schedule(c.cfg.BusLat, h, arg)
	}
	planesPerPkg := c.bb.Cfg.DiesPerPkg * c.bb.Cfg.PlanesPerDie
	regPlane := p.id*planesPerPkg + p.rr%planesPerPkg
	p.rr++
	p.insert(stampEntry{vp: vp, stamp: p.clock, sectors: c.sectorBit(va), regPlane: regPlane})
}

func stampVictim(p *stampPkg) uint64 {
	var vp uint64
	oldest := ^uint64(0)
	for i := range p.regs {
		if e := &p.regs[i]; e.live && e.stamp < oldest {
			oldest, vp = e.stamp, e.vp
		}
	}
	return vp
}

type stampDrain struct {
	c                *stampCache
	p                *stampPkg
	va               uint64
	regPlane, target int
	stage            drainStage
	h                sim.Handler
	arg              any
}

func (c *stampCache) evict(p *stampPkg, e stampEntry, h sim.Handler, arg any) {
	c.Evictions.Inc()
	c.victims = append(c.victims, e.vp)
	va := e.vp * uint64(c.bb.Cfg.PageBytes)
	d := &stampDrain{c: c, p: p, va: va, regPlane: e.regPlane, h: h, arg: arg}

	if lines := c.bb.Cfg.PageBytes / 128; p.thrashing && c.l2 != nil && c.pinnedLines+lines <= c.cfg.PinLines {
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
		c.RMWReads.Inc()
		loc := c.split.ReadLoc(va)
		d.stage = merged
		c.bb.Plane(loc.Plane).Read(loc.Block, loc.Page, d, nil)
		return
	}
	d.migrate()
}

func (d *stampDrain) Handle(any) {
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
		c.eng.Schedule(c.cfg.BusLat, d.h, d.arg)
	}
}

func (d *stampDrain) migrate() {
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
		d.stage = hopped
		c.mesh.Send(p.id, p.id, page, d, nil)
	case config.FCnet:
		c.eng.Schedule(c.cfg.BusLat, d, nil)
	default:
		p.local.Send(page, d, nil)
	}
}

func (d *stampDrain) program() {
	d.c.Programs.Inc()
	d.stage = durable
	d.c.split.WritePage(d.va, d, nil)
}

func (c *stampCache) endWindow(p *stampPkg) {
	if p.window < c.cfg.ThrashWindow {
		return
	}
	p.thrashing = float64(p.misses)/float64(p.window) > c.cfg.ThrashRatio
	p.window, p.misses = 0, 0
}
