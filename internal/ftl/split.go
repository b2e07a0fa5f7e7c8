package ftl

import (
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/sim"
	"zng/internal/stats"
)

// Loc is a physical flash location.
type Loc struct {
	Plane int
	Block int
	Page  int
	// FromLog reports whether the location was remapped by a log
	// block's row decoder.
	FromLog bool
}

// Split is the ZnG zero-overhead FTL.
type Split struct {
	eng    *sim.Engine
	bb     *flash.Backbone
	cfg    config.FTL
	helper *sim.Resource // GPU helper thread serializes GC work

	pagesPerBlock int
	planes        int

	// DBMT: virtual block -> physical data block (within the block's
	// home plane). Read-only from the request path's perspective; only
	// the helper thread rewrites it during GC. Virtual block numbers
	// are dense (they grow with the footprint), so the sharded table
	// packs them at ~8 B/entry.
	dbmt denseTable

	// LBMT: (plane, group) -> log block + its row-decoder LPMT. The
	// groups live in an append-only arena; gidx maps the dense group
	// key to arena index, so the hot write path does one radix lookup
	// and one slice index instead of a map probe.
	groups []*logGroup
	gidx   denseTable

	alloc []*planeAlloc

	// Statistics.
	Merges        stats.Counter
	MergeReads    stats.Counter
	MergePrograms stats.Counter
	LogPrograms   stats.Counter
	LogHits       stats.Counter
	StalledWrites stats.Counter
}

type logGroup struct {
	plane   int
	block   int
	dec     *flash.RowDecoder
	merging bool
	pending []pendingWrite
}

type pendingWrite struct {
	va  uint64
	h   sim.Handler
	arg any
}

// NewSplit builds the split FTL over a backbone. Data and log blocks
// come from the same per-plane free pool; no share of a plane is set
// aside as over-provisioned log space.
func NewSplit(eng *sim.Engine, bb *flash.Backbone, cfg config.FTL) *Split {
	s := &Split{
		eng:           eng,
		bb:            bb,
		cfg:           cfg,
		helper:        sim.NewResource(eng),
		pagesPerBlock: bb.Cfg.PagesPerBlock,
		planes:        bb.Planes(),
		alloc:         newPlaneAllocs(bb),
	}
	return s
}

// VBlock returns the virtual block and in-block page index of va.
//
// Pages stripe across planes at page granularity (superpage layout):
// consecutive logical pages land on consecutive planes, and a virtual
// block is the set of pages of one plane whose in-plane indexes share
// a block. This is the layout that lets the accumulated bandwidth of
// all 1,024 planes serve a working set of modest size — the property
// ZnG's whole design depends on.
func (s *Split) VBlock(va uint64) (vb uint64, pageIdx int) {
	vpage := va / uint64(s.bb.Cfg.PageBytes)
	plane := vpage % uint64(s.planes)
	idx := vpage / uint64(s.planes)
	vb = (idx/uint64(s.pagesPerBlock))*uint64(s.planes) + plane
	return vb, int(idx % uint64(s.pagesPerBlock))
}

// PlaneOf reports the home plane of a virtual block.
func (s *Split) PlaneOf(vb uint64) int { return int(vb % uint64(s.planes)) }

// dataBlock returns (allocating and preloading on first touch) the
// physical data block of vb.
func (s *Split) dataBlock(vb uint64) int {
	if b, ok := s.dbmt.get(vb); ok {
		return int(b)
	}
	plane := s.PlaneOf(vb)
	b, ok := s.alloc[plane].pop()
	if !ok {
		panic("ftl: plane out of data blocks (working set exceeds capacity)")
	}
	s.bb.Plane(plane).Preload(b)
	s.dbmt.put(vb, uint64(b))
	return b
}

// groupKey numbers log groups densely — group stripe index major,
// home plane minor — so the group index table's shard directory stays
// as compact as the footprint itself.
func (s *Split) groupKey(vb uint64) uint64 {
	plane := uint64(s.PlaneOf(vb))
	idx := (vb / uint64(s.planes)) / uint64(s.cfg.DataBlocksPerLog)
	return idx*uint64(s.planes) + plane
}

// group returns (allocating on first write) the log group of vb.
func (s *Split) group(vb uint64) *logGroup {
	key := s.groupKey(vb)
	if gi, ok := s.gidx.get(key); ok {
		return s.groups[gi]
	}
	plane := s.PlaneOf(vb)
	b, ok := s.alloc[plane].pop()
	if !ok {
		panic("ftl: plane out of log blocks")
	}
	g := &logGroup{plane: plane, block: b, dec: flash.NewRowDecoder(s.pagesPerBlock)}
	s.gidx.put(key, uint64(len(s.groups)))
	s.groups = append(s.groups, g)
	return g
}

// lpmtKey is the CAM key of Section IV-A: data block number plus page
// index.
func (s *Split) lpmtKey(vb uint64, pageIdx int) uint64 {
	return vb*uint64(s.pagesPerBlock) + uint64(pageIdx)
}

// ReadLoc resolves va for a read: DBMT first (done by the MMU), then
// the log group's row decoder (done in the flash package). The caller
// charges CAM latency.
func (s *Split) ReadLoc(va uint64) Loc {
	vb, pageIdx := s.VBlock(va)
	plane := s.PlaneOf(vb)
	if gi, ok := s.gidx.get(s.groupKey(vb)); ok {
		g := s.groups[gi]
		if slot, hit := g.dec.Lookup(s.lpmtKey(vb, pageIdx)); hit {
			s.LogHits.Inc()
			return Loc{Plane: plane, Block: g.block, Page: slot, FromLog: true}
		}
	}
	return Loc{Plane: plane, Block: s.dataBlock(vb), Page: pageIdx}
}

// WritePage programs the newest version of va's page into the log
// block, remapped by the row decoder, and delivers h.Handle(arg) when
// the program completes. A full log block triggers a helper-thread
// merge first; the write stalls behind it (counted in StalledWrites).
func (s *Split) WritePage(va uint64, h sim.Handler, arg any) {
	vb, pageIdx := s.VBlock(va)
	s.dataBlock(vb) // ensure DBMT entry exists
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

func (s *Split) program(g *logGroup, vb uint64, pageIdx int, h sim.Handler, arg any) {
	key := s.lpmtKey(vb, pageIdx)
	if old, ok := g.dec.Lookup(key); ok {
		s.bb.Plane(g.plane).MarkInvalid(g.block, old)
	} else {
		// First redirection of this page: the data-block copy is stale.
		db, _ := s.dbmt.get(vb)
		s.bb.Plane(g.plane).MarkInvalid(int(db), pageIdx)
	}
	slot, ok := g.dec.Insert(key)
	if !ok {
		panic("ftl: program into full log block")
	}
	s.LogPrograms.Inc()
	if err := s.bb.Plane(g.plane).Program(g.block, slot, h, arg); err != nil {
		panic("ftl: log program rejected: " + err.Error())
	}
}

// merge is the helper-thread GC of Section IV-A: fold the log block's
// live pages back into fresh data blocks, erase the old blocks, update
// the DBMT and LBMT, and hand the group a fresh log block.
func (s *Split) merge(g *logGroup) {
	g.merging = true
	s.Merges.Inc()

	// Affected virtual blocks: those with live log entries. Keys()
	// is sorted, so dividing by the page count yields the affected
	// blocks already deduplicated in ascending order — the merge walk
	// below is structurally deterministic.
	var affected []uint64
	keys := g.dec.Keys()
	for _, key := range keys {
		vb := key / uint64(s.pagesPerBlock)
		if n := len(affected); n == 0 || affected[n-1] != vb {
			affected = append(affected, vb)
		}
	}
	liveLog := len(keys)

	plane := s.bb.Plane(g.plane)
	s.helper.Acquire(s.cfg.HelperThreadLat, sim.Func(func() {
		// Read phase: live log pages plus the still-valid pages of each
		// affected data block.
		reads := liveLog
		for _, vb := range affected {
			db, _ := s.dbmt.get(vb)
			reads += plane.Block(int(db)).ValidCount()
		}
		s.MergeReads.Add(uint64(reads))
		plane.ReadMany(reads, sim.Func(func() {
			// Program phase: each affected vblock gets a fresh, wear-
			// levelled block holding all of its pages.
			programs := 0
			for _, vb := range affected {
				oldDB, _ := s.dbmt.get(vb)
				old := int(oldDB)
				fresh, ok := s.alloc[g.plane].pop()
				if !ok {
					panic("ftl: no free block for merge")
				}
				if err := plane.ProgramRange(fresh, s.pagesPerBlock, nil, nil); err != nil {
					panic("ftl: merge program failed: " + err.Error())
				}
				programs += s.pagesPerBlock
				if err := plane.Erase(old, nil, nil); err == nil {
					s.alloc[g.plane].push(old)
				}
				s.dbmt.put(vb, uint64(fresh))
			}
			s.MergePrograms.Add(uint64(programs))

			// Recycle the log block.
			done := sim.Func(func() { s.mergeDone(g) })
			if err := plane.Erase(g.block, done, nil); err != nil {
				// Worn out: retire it and allocate a different log block.
				b, ok := s.alloc[g.plane].pop()
				if !ok {
					panic("ftl: no replacement log block")
				}
				g.block = b
				s.eng.Schedule(0, done, nil)
				return
			}
		}), nil)
	}), nil)
}

func (s *Split) mergeDone(g *logGroup) {
	g.dec.Reset()
	g.merging = false
	pend := g.pending
	g.pending = nil
	for _, w := range pend {
		vb, pageIdx := s.VBlock(w.va)
		if g.dec.Full() {
			// Extremely write-heavy bursts can refill instantly.
			g.pending = append(g.pending, w)
			if !g.merging {
				s.merge(g)
			}
			continue
		}
		s.program(g, vb, pageIdx, w.h, w.arg)
	}
}

// FreeBlocks reports the total free blocks across planes (tests and
// the GC ablation use it).
func (s *Split) FreeBlocks() int {
	n := 0
	for _, a := range s.alloc {
		n += a.freeCount()
	}
	return n
}

// MappedPages reports the virtual pages covered by DBMT entries —
// every page of a mapped virtual block resolves without firmware.
func (s *Split) MappedPages() int { return s.dbmt.len() * s.pagesPerBlock }

// StateBytes reports the allocated footprint of the split FTL's
// translation state: the DBMT (the part ZnG holds in MMU SRAM), the
// log-group directory, and every log block's row-decoder CAM.
func (s *Split) StateBytes() uint64 {
	const groupStruct = 64 // logGroup header, pointer-aligned
	b := s.dbmt.stateBytes() + s.gidx.stateBytes()
	b += uint64(cap(s.groups)) * 8
	for _, g := range s.groups {
		b += groupStruct + g.dec.StateBytes()
	}
	return b
}

// MaxEraseCount reports the largest per-block erase count observed —
// the wear-levelling metric of the lifetime ablation.
func (s *Split) MaxEraseCount() int {
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
