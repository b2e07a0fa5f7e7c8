package ftl

// Differential tests: the map-backed FTLs this package shipped before
// the dense-table rework, kept verbatim as test-only references (maps
// for the page table, owner and DBMT state, and a map-backed row
// decoder). The dense implementations must agree location-for-
// location, counter-for-counter and erase-for-erase on randomized
// workloads — the contract that made the rework a pure optimization.

import (
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/rng"
	"zng/internal/sim"
	"zng/internal/stats"
)

// diffCfg is the deliberately tiny geometry (mirroring the GC
// ablation's) that makes garbage collection and log merges cheap to
// provoke.
func diffCfg() config.Flash {
	fcfg := config.Default().Flash
	fcfg.Channels = 4
	fcfg.DiesPerPkg = 2
	fcfg.PlanesPerDie = 2
	fcfg.BlocksPerPl = 64
	fcfg.PagesPerBlock = 16
	fcfg.ReadLat, fcfg.ProgramLat, fcfg.EraseLat = 30, 1000, 3000
	return fcfg
}

// --- map-backed row decoder (pre-rework flash.RowDecoder) -----------

type refRowDecoder struct {
	cam      map[uint64]int
	stale    map[int]bool
	nextFree int
	capacity int
}

func newRefRowDecoder(pagesPerBlock int) *refRowDecoder {
	return &refRowDecoder{cam: make(map[uint64]int), stale: make(map[int]bool), capacity: pagesPerBlock}
}

func (d *refRowDecoder) Lookup(key uint64) (int, bool) { s, ok := d.cam[key]; return s, ok }

func (d *refRowDecoder) Insert(key uint64) (int, bool) {
	if d.nextFree >= d.capacity {
		return 0, false
	}
	if old, exists := d.cam[key]; exists {
		d.stale[old] = true
	}
	slot := d.nextFree
	d.nextFree++
	d.cam[key] = slot
	return slot, true
}

func (d *refRowDecoder) Full() bool { return d.nextFree >= d.capacity }

func (d *refRowDecoder) Keys() []uint64 {
	out := make([]uint64, 0, len(d.cam))
	for k := range d.cam {
		out = append(out, k)
	}
	sortU64(out)
	return out
}

func (d *refRowDecoder) Reset() {
	d.cam = make(map[uint64]int)
	d.stale = make(map[int]bool)
	d.nextFree = 0
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- map-backed page-mapped FTL (pre-rework PageMapped) -------------

type refPageMapped struct {
	eng *sim.Engine
	bb  *flash.Backbone
	cfg config.FTL

	planes int
	table  map[uint64]Loc
	owner  map[uint64]uint64

	alloc   []*planeAlloc
	open    []int
	preload []preloadState
	rr      int
	inGC    []bool

	HostWrites stats.Counter
	GCRuns     stats.Counter
	GCMoves    stats.Counter
}

func newRefPageMapped(eng *sim.Engine, bb *flash.Backbone, cfg config.FTL) *refPageMapped {
	p := &refPageMapped{
		eng:    eng,
		bb:     bb,
		cfg:    cfg,
		planes: bb.Planes(),
		table:  make(map[uint64]Loc),
		owner:  make(map[uint64]uint64),
	}
	for i := 0; i < p.planes; i++ {
		p.alloc = append(p.alloc, newPlaneAlloc(bb.Plane(i), 0, bb.Cfg.BlocksPerPl))
		p.open = append(p.open, -1)
		p.preload = append(p.preload, preloadState{block: -1})
		p.inGC = append(p.inGC, false)
	}
	return p
}

func (p *refPageMapped) vpage(va uint64) uint64 { return va / uint64(p.bb.Cfg.PageBytes) }

func (p *refPageMapped) Lookup(va uint64) Loc {
	vp := p.vpage(va)
	if l, ok := p.table[vp]; ok {
		return l
	}
	plane := int(vp % uint64(p.planes))
	ps := &p.preload[plane]
	if ps.block < 0 || ps.next >= p.bb.Cfg.PagesPerBlock {
		b, ok := p.alloc[plane].pop()
		if !ok {
			panic("ref ftl: plane out of preload blocks")
		}
		ps.block, ps.next = b, 0
	}
	l := Loc{Plane: plane, Block: ps.block, Page: ps.next}
	ps.next++
	p.bb.Plane(plane).PreloadPage(l.Block, l.Page)
	p.table[vp] = l
	p.owner[packLoc(l)] = vp
	return l
}

func (p *refPageMapped) WritePage(va uint64, h sim.Handler, arg any) {
	plane := p.rr % p.planes
	p.rr++
	p.HostWrites.Inc()
	p.writeTo(plane, p.vpage(va), h, arg)
}

func (p *refPageMapped) writeTo(plane int, vp uint64, h sim.Handler, arg any) {
	blk, page := p.nextSlot(plane)
	if old, ok := p.table[vp]; ok {
		p.bb.Plane(old.Plane).MarkInvalid(old.Block, old.Page)
		delete(p.owner, packLoc(old))
	}
	l := Loc{Plane: plane, Block: blk, Page: page}
	p.table[vp] = l
	p.owner[packLoc(l)] = vp
	if err := p.bb.Plane(plane).Program(blk, page, h, arg); err != nil {
		panic("ref ftl: program failed: " + err.Error())
	}
	p.maybeGC(plane)
}

func (p *refPageMapped) nextSlot(plane int) (block, page int) {
	b := p.open[plane]
	if b < 0 || p.bb.Plane(plane).Block(b).WritePtr >= p.bb.Cfg.PagesPerBlock {
		nb, ok := p.alloc[plane].pop()
		if !ok {
			panic("ref ftl: plane out of write blocks")
		}
		p.open[plane] = nb
		b = nb
	}
	return b, p.bb.Plane(plane).Block(b).WritePtr
}

func (p *refPageMapped) maybeGC(plane int) {
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
			if cur, ok := p.table[m.vp]; !ok || cur != m.loc {
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

func (p *refPageMapped) pickVictim(plane int) (victim int, moves []gcMove) {
	victim = -1
	best := p.bb.Cfg.PagesPerBlock + 1
	pl := p.bb.Plane(plane)
	pl.EachBlock(func(id int, bl *flash.Block) {
		if id == p.open[plane] || id == p.preload[plane].block {
			return
		}
		if bl.WritePtr < p.bb.Cfg.PagesPerBlock {
			return
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
			if vp, ok := p.owner[packLoc(l)]; ok {
				moves = append(moves, gcMove{vp: vp, loc: l})
			}
		}
	}
	return victim, moves
}

func (p *refPageMapped) FreeBlocks() int {
	n := 0
	for _, a := range p.alloc {
		n += a.freeCount()
	}
	return n
}

// --- map-backed split FTL (pre-rework Split) ------------------------

type refSplit struct {
	eng    *sim.Engine
	bb     *flash.Backbone
	cfg    config.FTL
	helper *sim.Resource

	pagesPerBlock int
	planes        int
	dbmt          map[uint64]int
	groups        map[uint64]*refLogGroup
	alloc         []*planeAlloc

	Merges        stats.Counter
	MergeReads    stats.Counter
	MergePrograms stats.Counter
	LogPrograms   stats.Counter
	LogHits       stats.Counter
	StalledWrites stats.Counter
}

type refLogGroup struct {
	plane   int
	block   int
	dec     *refRowDecoder
	merging bool
	pending []pendingWrite
}

func newRefSplit(eng *sim.Engine, bb *flash.Backbone, cfg config.FTL) *refSplit {
	s := &refSplit{
		eng:           eng,
		bb:            bb,
		cfg:           cfg,
		helper:        sim.NewResource(eng),
		pagesPerBlock: bb.Cfg.PagesPerBlock,
		planes:        bb.Planes(),
		dbmt:          make(map[uint64]int),
		groups:        make(map[uint64]*refLogGroup),
	}
	for i := 0; i < s.planes; i++ {
		s.alloc = append(s.alloc, newPlaneAlloc(bb.Plane(i), 0, bb.Cfg.BlocksPerPl))
	}
	return s
}

func (s *refSplit) VBlock(va uint64) (uint64, int) {
	vpage := va / uint64(s.bb.Cfg.PageBytes)
	plane := vpage % uint64(s.planes)
	idx := vpage / uint64(s.planes)
	vb := (idx/uint64(s.pagesPerBlock))*uint64(s.planes) + plane
	return vb, int(idx % uint64(s.pagesPerBlock))
}

func (s *refSplit) PlaneOf(vb uint64) int { return int(vb % uint64(s.planes)) }

func (s *refSplit) dataBlock(vb uint64) int {
	if b, ok := s.dbmt[vb]; ok {
		return b
	}
	plane := s.PlaneOf(vb)
	b, ok := s.alloc[plane].pop()
	if !ok {
		panic("ref ftl: plane out of data blocks")
	}
	s.bb.Plane(plane).Preload(b)
	s.dbmt[vb] = b
	return b
}

func (s *refSplit) groupKey(vb uint64) uint64 {
	plane := uint64(s.PlaneOf(vb))
	idx := (vb / uint64(s.planes)) / uint64(s.cfg.DataBlocksPerLog)
	return plane<<32 | idx
}

func (s *refSplit) group(vb uint64) *refLogGroup {
	key := s.groupKey(vb)
	if g, ok := s.groups[key]; ok {
		return g
	}
	plane := s.PlaneOf(vb)
	b, ok := s.alloc[plane].pop()
	if !ok {
		panic("ref ftl: plane out of log blocks")
	}
	g := &refLogGroup{plane: plane, block: b, dec: newRefRowDecoder(s.pagesPerBlock)}
	s.groups[key] = g
	return g
}

func (s *refSplit) lpmtKey(vb uint64, pageIdx int) uint64 {
	return vb*uint64(s.pagesPerBlock) + uint64(pageIdx)
}

func (s *refSplit) ReadLoc(va uint64) Loc {
	vb, pageIdx := s.VBlock(va)
	plane := s.PlaneOf(vb)
	if g, ok := s.groups[s.groupKey(vb)]; ok {
		if slot, hit := g.dec.Lookup(s.lpmtKey(vb, pageIdx)); hit {
			s.LogHits.Inc()
			return Loc{Plane: plane, Block: g.block, Page: slot, FromLog: true}
		}
	}
	return Loc{Plane: plane, Block: s.dataBlock(vb), Page: pageIdx}
}

func (s *refSplit) WritePage(va uint64, h sim.Handler, arg any) {
	vb, pageIdx := s.VBlock(va)
	s.dataBlock(vb)
	g := s.group(vb)
	if g.merging {
		s.StalledWrites.Inc()
		g.pending = append(g.pending, pendingWrite{va, h, arg})
		return
	}
	if g.dec.Full() {
		s.StalledWrites.Inc()
		g.pending = append(g.pending, pendingWrite{va, h, arg})
		s.merge(g)
		return
	}
	s.program(g, vb, pageIdx, h, arg)
}

func (s *refSplit) program(g *refLogGroup, vb uint64, pageIdx int, h sim.Handler, arg any) {
	key := s.lpmtKey(vb, pageIdx)
	if old, ok := g.dec.Lookup(key); ok {
		s.bb.Plane(g.plane).MarkInvalid(g.block, old)
	} else {
		s.bb.Plane(g.plane).MarkInvalid(s.dbmt[vb], pageIdx)
	}
	slot, ok := g.dec.Insert(key)
	if !ok {
		panic("ref ftl: program into full log block")
	}
	s.LogPrograms.Inc()
	if err := s.bb.Plane(g.plane).Program(g.block, slot, h, arg); err != nil {
		panic("ref ftl: log program rejected: " + err.Error())
	}
}

// merge mirrors the pre-rework helper-thread GC. The shipped code
// walked the affected set in map order, which the simulation's
// outputs are invariant to; the reference walks it in sorted order so
// block assignments are reproducible and comparable block-for-block.
func (s *refSplit) merge(g *refLogGroup) {
	g.merging = true
	s.Merges.Inc()

	affectedSet := map[uint64]bool{}
	liveLog := 0
	for _, key := range g.dec.Keys() {
		affectedSet[key/uint64(s.pagesPerBlock)] = true
		liveLog++
	}
	affected := make([]uint64, 0, len(affectedSet))
	for vb := range affectedSet {
		affected = append(affected, vb)
	}
	sortU64(affected)

	plane := s.bb.Plane(g.plane)
	s.helper.Acquire(s.cfg.HelperThreadLat, sim.Func(func() {
		reads := liveLog
		for _, vb := range affected {
			reads += plane.Block(s.dbmt[vb]).ValidCount()
		}
		s.MergeReads.Add(uint64(reads))
		plane.ReadMany(reads, sim.Func(func() {
			programs := 0
			for _, vb := range affected {
				old := s.dbmt[vb]
				fresh, ok := s.alloc[g.plane].pop()
				if !ok {
					panic("ref ftl: no free block for merge")
				}
				if err := plane.ProgramRange(fresh, s.pagesPerBlock, nil, nil); err != nil {
					panic("ref ftl: merge program failed: " + err.Error())
				}
				programs += s.pagesPerBlock
				if err := plane.Erase(old, nil, nil); err == nil {
					s.alloc[g.plane].push(old)
				}
				s.dbmt[vb] = fresh
			}
			s.MergePrograms.Add(uint64(programs))

			if err := plane.Erase(g.block, sim.Func(func() { s.mergeDone(g) }), nil); err != nil {
				b, ok := s.alloc[g.plane].pop()
				if !ok {
					panic("ref ftl: no replacement log block")
				}
				g.block = b
				s.eng.Schedule(0, sim.Func(func() { s.mergeDone(g) }), nil)
				return
			}
		}), nil)
	}), nil)
}

func (s *refSplit) mergeDone(g *refLogGroup) {
	g.dec.Reset()
	g.merging = false
	pend := g.pending
	g.pending = nil
	for _, w := range pend {
		vb, pageIdx := s.VBlock(w.va)
		if g.dec.Full() {
			g.pending = append(g.pending, w)
			if !g.merging {
				s.merge(g)
			}
			continue
		}
		s.program(g, vb, pageIdx, w.h, w.arg)
	}
}

func (s *refSplit) FreeBlocks() int {
	n := 0
	for _, a := range s.alloc {
		n += a.freeCount()
	}
	return n
}

func (s *refSplit) MaxEraseCount() int {
	max := 0
	for i := 0; i < s.planes; i++ {
		s.bb.Plane(i).EachBlock(func(_ int, bl *flash.Block) {
			if bl.EraseCount > max {
				max = bl.EraseCount
			}
		})
	}
	return max
}

// --- the differential drivers ---------------------------------------

// compareBackbones asserts the two flash arrays are in identical
// physical states: write pointers, valid counts and erase counts on
// every materialized block — the erase-count half is the
// wear-levelling invariant.
func compareBackbones(t *testing.T, tag string, a, b *flash.Backbone) {
	t.Helper()
	for pl := 0; pl < a.Planes(); pl++ {
		type blockState struct{ wp, valid, erases int }
		stateA := map[int]blockState{}
		a.Plane(pl).EachBlock(func(id int, bl *flash.Block) {
			stateA[id] = blockState{bl.WritePtr, bl.ValidCount(), bl.EraseCount}
		})
		b.Plane(pl).EachBlock(func(id int, bl *flash.Block) {
			if got := (blockState{bl.WritePtr, bl.ValidCount(), bl.EraseCount}); got != stateA[id] {
				t.Fatalf("%s: plane %d block %d diverged: dense %+v, reference %+v",
					tag, pl, id, got, stateA[id])
			}
			delete(stateA, id)
		})
		if len(stateA) != 0 {
			t.Fatalf("%s: plane %d: reference materialized %d blocks the dense side did not",
				tag, pl, len(stateA))
		}
	}
}

// TestPageMappedDifferential drives the dense PageMapped and the map
// reference through an identical randomized write/read stream (heavy
// enough to trigger garbage collection) on separate engines, and
// asserts locations, GC counters and per-block erase counts agree.
func TestPageMappedDifferential(t *testing.T) {
	fcfg := diffCfg()
	engA, engB := sim.NewEngine(), sim.NewEngine()
	bbA, bbB := flash.New(engA, fcfg), flash.New(engB, fcfg)
	dense := NewPageMapped(engA, bbA, config.Default().FTL)
	ref := newRefPageMapped(engB, bbB, config.Default().FTL)

	const pages = 64
	r := rng.New(0xF71)
	for op := 0; op < 24000; op++ {
		va := r.Uint64n(pages) * 4096
		if r.Uint64n(3) == 0 {
			if got, want := dense.Lookup(va), ref.Lookup(va); got != want {
				t.Fatalf("op %d: Lookup(%#x) = %+v, reference says %+v", op, va, got, want)
			}
		} else {
			dense.WritePage(va, nil, nil)
			ref.WritePage(va, nil, nil)
		}
		engA.Run()
		engB.Run()
	}

	for vp := uint64(0); vp < pages; vp++ {
		if got, want := dense.Lookup(vp*4096), ref.Lookup(vp*4096); got != want {
			t.Fatalf("final: Lookup(page %d) = %+v, reference says %+v", vp, got, want)
		}
	}
	if dense.HostWrites.Value() != ref.HostWrites.Value() ||
		dense.GCRuns.Value() != ref.GCRuns.Value() ||
		dense.GCMoves.Value() != ref.GCMoves.Value() {
		t.Fatalf("counters diverged: dense (w=%d gc=%d mv=%d), reference (w=%d gc=%d mv=%d)",
			dense.HostWrites.Value(), dense.GCRuns.Value(), dense.GCMoves.Value(),
			ref.HostWrites.Value(), ref.GCRuns.Value(), ref.GCMoves.Value())
	}
	if ref.GCRuns.Value() == 0 {
		t.Fatal("stream never triggered GC; the differential proves too little")
	}
	if dense.FreeBlocks() != ref.FreeBlocks() {
		t.Fatalf("free blocks: dense %d, reference %d", dense.FreeBlocks(), ref.FreeBlocks())
	}
	if dense.MappedPages() != len(ref.table) {
		t.Fatalf("mapped pages: dense %d, reference %d", dense.MappedPages(), len(ref.table))
	}
	compareBackbones(t, "pagemapped", bbA, bbB)
}

// TestSplitDifferential does the same for the split FTL: randomized
// rewrite pressure forcing log merges, then location, counter, log-
// group and wear (erase-count) equivalence.
func TestSplitDifferential(t *testing.T) {
	fcfg := diffCfg()
	engA, engB := sim.NewEngine(), sim.NewEngine()
	bbA, bbB := flash.New(engA, fcfg), flash.New(engB, fcfg)
	dense := NewSplit(engA, bbA, config.Default().FTL)
	ref := newRefSplit(engB, bbB, config.Default().FTL)

	const pages = 64
	r := rng.New(0x5B17)
	for op := 0; op < 6000; op++ {
		va := r.Uint64n(pages) * 4096
		if r.Uint64n(4) == 0 {
			if got, want := dense.ReadLoc(va), ref.ReadLoc(va); got != want {
				t.Fatalf("op %d: ReadLoc(%#x) = %+v, reference says %+v", op, va, got, want)
			}
		} else {
			dense.WritePage(va, nil, nil)
			ref.WritePage(va, nil, nil)
		}
		engA.Run()
		engB.Run()
	}

	for vp := uint64(0); vp < pages; vp++ {
		if got, want := dense.ReadLoc(vp*4096), ref.ReadLoc(vp*4096); got != want {
			t.Fatalf("final: ReadLoc(page %d) = %+v, reference says %+v", vp, got, want)
		}
	}
	if dense.Merges.Value() != ref.Merges.Value() ||
		dense.MergeReads.Value() != ref.MergeReads.Value() ||
		dense.MergePrograms.Value() != ref.MergePrograms.Value() ||
		dense.LogPrograms.Value() != ref.LogPrograms.Value() ||
		dense.LogHits.Value() != ref.LogHits.Value() ||
		dense.StalledWrites.Value() != ref.StalledWrites.Value() {
		t.Fatalf("counters diverged: dense (m=%d mr=%d mp=%d lp=%d lh=%d sw=%d), reference (m=%d mr=%d mp=%d lp=%d lh=%d sw=%d)",
			dense.Merges.Value(), dense.MergeReads.Value(), dense.MergePrograms.Value(),
			dense.LogPrograms.Value(), dense.LogHits.Value(), dense.StalledWrites.Value(),
			ref.Merges.Value(), ref.MergeReads.Value(), ref.MergePrograms.Value(),
			ref.LogPrograms.Value(), ref.LogHits.Value(), ref.StalledWrites.Value())
	}
	if ref.Merges.Value() == 0 {
		t.Fatal("stream never triggered a merge; the differential proves too little")
	}
	if dense.FreeBlocks() != ref.FreeBlocks() {
		t.Fatalf("free blocks: dense %d, reference %d", dense.FreeBlocks(), ref.FreeBlocks())
	}
	if dense.MaxEraseCount() != ref.MaxEraseCount() {
		t.Fatalf("max erase: dense %d, reference %d", dense.MaxEraseCount(), ref.MaxEraseCount())
	}
	if dense.dbmt.len() != len(ref.dbmt) {
		t.Fatalf("DBMT entries: dense %d, reference %d", dense.dbmt.len(), len(ref.dbmt))
	}
	compareBackbones(t, "split", bbA, bbB)
}
