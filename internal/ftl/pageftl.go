package ftl

import (
	"fmt"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/sim"
	"zng/internal/stats"
)

// PageMapped is the monolithic page-mapped FTL that the HybridGPU SSD
// engine executes in firmware (Section II-B): full page-granularity
// mapping in controller DRAM, round-robin write striping across
// planes, greedy-victim garbage collection.
//
// Timing note: this type performs the flash-side work; the per-request
// firmware processing cost (address translation on the embedded
// cores — 67% of HybridGPU's latency per Fig. 4d) is charged by
// internal/ssd before requests reach here.
type PageMapped struct {
	eng *sim.Engine
	bb  *flash.Backbone
	cfg config.FTL

	planes int
	table  denseTable // vpage -> packed physical location
	owner  denseTable // dense physical page index -> vpage

	alloc   []*planeAlloc
	open    []int // per-plane open write block (-1 = none)
	preload []preloadState
	rr      int
	inGC    []bool

	// Statistics.
	HostWrites stats.Counter
	GCRuns     stats.Counter
	GCMoves    stats.Counter
}

type preloadState struct {
	block int
	next  int
}

// NewPageMapped builds the FTL over a backbone.
func NewPageMapped(eng *sim.Engine, bb *flash.Backbone, cfg config.FTL) *PageMapped {
	p := &PageMapped{
		eng:    eng,
		bb:     bb,
		cfg:    cfg,
		planes: bb.Planes(),
	}
	p.alloc = newPlaneAllocs(bb)
	for i := 0; i < p.planes; i++ {
		p.open = append(p.open, -1)
		p.preload = append(p.preload, preloadState{block: -1})
		p.inGC = append(p.inGC, false)
	}
	return p
}

func (p *PageMapped) vpage(va uint64) uint64 { return va / uint64(p.bb.Cfg.PageBytes) }

func packLoc(l Loc) uint64 {
	return uint64(l.Plane)<<40 | uint64(l.Block)<<16 | uint64(l.Page)
}

func unpackLoc(v uint64) Loc {
	return Loc{Plane: int(v >> 40), Block: int(v >> 16 & 0xFFFFFF), Page: int(v & 0xFFFF)}
}

// physIdx flattens a location into the owner table's key: block
// major, then page, then plane (the stripe-major, plane-minor order of
// Split.VBlock and groupKey). Planes take blocks in lockstep — writes
// go round-robin, preloads stripe, and each plane's free list is a
// FIFO — so the live pages of the default geometry's 1,024 planes
// share a handful of leaves; a plane-major order would give every
// plane its own 4096-entry leaf for a few pages. The lockstep holds
// until GC frees blocks out of order. On the default geometry GC
// first runs after about 383M pages are written or preloaded (974 of
// each plane's 1,024 blocks, at GCThreshold 0.05), and the tiny GC
// test geometries fit their whole physical space in a few leaves
// under either order.
func (p *PageMapped) physIdx(l Loc) uint64 {
	return (uint64(l.Block)*uint64(p.bb.Cfg.PagesPerBlock)+uint64(l.Page))*uint64(p.planes) + uint64(l.Plane)
}

// Lookup resolves va, lazily placing never-written pages in preloaded
// blocks striped across planes (the state of a freshly imaged drive).
func (p *PageMapped) Lookup(va uint64) Loc {
	vp := p.vpage(va)
	if v, ok := p.table.get(vp); ok {
		return unpackLoc(v)
	}
	plane := int(vp % uint64(p.planes))
	ps := &p.preload[plane]
	if ps.block < 0 || ps.next >= p.bb.Cfg.PagesPerBlock {
		b, ok := p.alloc[plane].pop()
		if !ok {
			panic("ftl: plane out of preload blocks")
		}
		ps.block, ps.next = b, 0
	}
	l := Loc{Plane: plane, Block: ps.block, Page: ps.next}
	ps.next++
	p.bb.Plane(plane).PreloadPage(l.Block, l.Page)
	p.table.put(vp, packLoc(l))
	p.owner.put(p.physIdx(l), vp)
	return l
}

// WritePage appends the newest version of va's page to an open block
// (round-robin across planes), invalidates the old copy, and delivers
// h.Handle(arg) when the program completes.
func (p *PageMapped) WritePage(va uint64, h sim.Handler, arg any) {
	plane := p.rr % p.planes
	p.rr++
	p.HostWrites.Inc()
	p.writeTo(plane, p.vpage(va), h, arg)
}

func (p *PageMapped) writeTo(plane int, vp uint64, h sim.Handler, arg any) {
	blk, page := p.nextSlot(plane)
	// Invalidate the previous version.
	if v, ok := p.table.get(vp); ok {
		old := unpackLoc(v)
		p.bb.Plane(old.Plane).MarkInvalid(old.Block, old.Page)
		p.owner.del(p.physIdx(old))
	}
	l := Loc{Plane: plane, Block: blk, Page: page}
	p.table.put(vp, packLoc(l))
	p.owner.put(p.physIdx(l), vp)
	if err := p.bb.Plane(plane).Program(blk, page, h, arg); err != nil {
		panic("ftl: page-mapped program failed: " + err.Error())
	}
	p.maybeGC(plane)
}

// nextSlot returns the next in-order slot of the plane's open block,
// opening a fresh one as needed.
func (p *PageMapped) nextSlot(plane int) (block, page int) {
	b := p.open[plane]
	if b < 0 || p.bb.Plane(plane).Block(b).WritePtr >= p.bb.Cfg.PagesPerBlock {
		nb, ok := p.alloc[plane].pop()
		if !ok {
			panic("ftl: plane out of write blocks (GC fell behind)")
		}
		p.open[plane] = nb
		b = nb
	}
	return b, p.bb.Plane(plane).Block(b).WritePtr
}

// maybeGC runs greedy garbage collection when the plane's free pool
// drops below the configured threshold.
func (p *PageMapped) maybeGC(plane int) {
	if p.inGC[plane] {
		return
	}
	thresh := int(float64(p.bb.Cfg.BlocksPerPl) * p.cfg.GCThreshold)
	if p.alloc[plane].freeCount() >= thresh {
		return
	}
	victim, moves := p.pickVictim(plane)
	if victim < 0 {
		return
	}
	p.inGC[plane] = true
	p.GCRuns.Inc()
	pl := p.bb.Plane(plane)
	pl.ReadMany(len(moves), sim.Func(func() {
		for _, m := range moves {
			// The foreground may have rewritten the page while the GC
			// read burst was in flight; only move still-current copies,
			// or the stale move would clobber the newer mapping.
			if cur, ok := p.table.get(m.vp); !ok || unpackLoc(cur) != m.loc {
				continue
			}
			p.GCMoves.Inc()
			p.writeTo(plane, m.vp, nil, nil)
		}
		if err := pl.Erase(victim, nil, nil); err == nil {
			p.alloc[plane].push(victim)
		}
		p.inGC[plane] = false
	}), nil)
}

type gcMove struct {
	vp  uint64
	loc Loc
}

// pickVictim selects the materialized block with the fewest valid
// pages (greedy), skipping the open and preload blocks. It returns the
// virtual pages that must move.
func (p *PageMapped) pickVictim(plane int) (victim int, moves []gcMove) {
	victim = -1
	best := p.bb.Cfg.PagesPerBlock + 1
	pl := p.bb.Plane(plane)
	pl.EachBlock(func(id int, bl *flash.Block) {
		if id == p.open[plane] || id == p.preload[plane].block {
			return
		}
		if bl.WritePtr < p.bb.Cfg.PagesPerBlock {
			return // not yet full; erasing it would waste free pages
		}
		if v := bl.ValidCount(); v < best {
			best = v
			victim = id
		}
	})
	if victim < 0 {
		return -1, nil
	}
	for page := 0; page < p.bb.Cfg.PagesPerBlock; page++ {
		if pl.Block(victim).Valid(page) {
			l := Loc{Plane: plane, Block: victim, Page: page}
			vp, ok := p.owner.get(p.physIdx(l))
			if !ok {
				// Erasing the victim would lose this page's data.
				panic(fmt.Sprintf("ftl: valid page without owner (plane %d, block %d, page %d)",
					plane, victim, page))
			}
			moves = append(moves, gcMove{vp: vp, loc: l})
		}
	}
	return victim, moves
}

// FreeBlocks reports total free blocks (tests).
func (p *PageMapped) FreeBlocks() int {
	n := 0
	for _, a := range p.alloc {
		n += a.freeCount()
	}
	return n
}

// EachMapping visits every live vpage -> location mapping in
// ascending vpage order (tests and audits).
func (p *PageMapped) EachMapping(fn func(vp uint64, l Loc)) {
	p.table.each(func(vp, v uint64) { fn(vp, unpackLoc(v)) })
}

// MappedPages reports the number of mapped virtual pages.
func (p *PageMapped) MappedPages() int { return p.table.len() }

// StateBytes reports the host memory the simulator allocates for the
// translation state — the forward page table plus the reverse owner
// mapping. It measures this model's tables, not the firmware DRAM the
// paper's Section II-B costs out: a key order that packs leaves
// shrinks it without changing a simulated byte.
func (p *PageMapped) StateBytes() uint64 {
	return p.table.stateBytes() + p.owner.stateBytes()
}
