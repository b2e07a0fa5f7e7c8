package platform

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/gpu"
	"zng/internal/intmap"
	"zng/internal/mem"
	"zng/internal/mmu"
	"zng/internal/noc"
	"zng/internal/prefetch"
	"zng/internal/regcache"
	"zng/internal/sim"
	"zng/internal/stats"
)

// rowDecoderLat is the two-phase CAM search of the programmable row
// decoder (Section IV-A), charged on every flash-side read resolution.
const rowDecoderLat sim.Tick = 8

// buildZnG assembles the four ZnG variants of Section V-A. The shared
// skeleton (Fig. 6a): flash controllers attach directly to the GPU
// interconnect; the MMU performs DBMT translation (zero-overhead FTL);
// an 8 B-link mesh replaces the legacy flash channels; log-block row
// decoders remap writes.
//
//	ZnG-base : 6 MB SRAM write-back L2, per-plane direct registers.
//	ZnG-rdopt: 24 MB STT-MRAM read-only L2 + dynamic prefetch.
//	ZnG-wropt: grouped register write cache over NiF + thrash checker.
//	ZnG      : rdopt + wropt.
func buildZnG(eng *sim.Engine, kind Kind, cfg config.Config) *system {
	rdopt := kind == ZnGRdopt || kind == ZnG
	wropt := kind == ZnGWropt || kind == ZnG

	// ZnG variants run with the full 8-register planes; base keeps the
	// stock two (Table I).
	fcfg := cfg.Flash
	if wropt {
		fcfg.RegsPerPlane = 8
	}

	bb := flash.New(eng, fcfg)
	split := ftl.NewSplit(eng, bb, cfg.FTL)
	// The mesh is the smallest square grid with a router per package.
	dim := 1
	for dim*dim < bb.Packages() {
		dim++
	}
	mesh := noc.NewMesh(eng, dim, config.GBpsToBytesPerTick(fcfg.MeshLinkGBps), fcfg.MeshHopLat)
	xbar := noc.NewXbar(eng, bb.Packages(), 32, 8)

	// Zero-overhead FTL: the DBMT lives in the MMU, so a TLB miss costs
	// only the in-SRAM block-map lookup.
	u := mmu.New(eng, cfg.MMU, cfg.GPU.SMs, cfg.MMU.DBMTLatency)

	ctl := &zngController{
		eng: eng, bb: bb, split: split, mesh: mesh, xbar: xbar,
		camLat:   rowDecoderLat,
		senseIdx: intmap.New(0),
		readRegs: make([]pageRing, bb.Planes()),
	}
	// At most two registers double-buffer reads; the rest (if any)
	// belong to the write cache.
	readRing := min(fcfg.RegsPerPlane, 2)
	pages := make([]uint64, len(ctl.readRegs)*readRing)
	for i := range ctl.readRegs {
		ctl.readRegs[i] = pageRing{pages: pages[i*readRing : i*readRing : (i+1)*readRing]}
	}

	l2cfg := cfg.L2SRAM
	if rdopt {
		l2cfg = cfg.L2STT
	}
	l2 := cache.New(eng, l2cfg, ctl, "L2")

	if rdopt {
		pf := prefetch.New(cfg.Prefetch)
		ctl.pf = pf
		ctl.l2 = l2
		l2.OnEvict = pf.OnEvict
	}

	// Without the write optimization, each plane's registers act as
	// plain per-plane staging buffers (Section III-C: the limited
	// per-plane registers "may not be sufficient... based on workload
	// execution behaviors" — grouping them is wropt's contribution).
	opts := regcache.Options{PerPlaneDirect: !wropt, Mesh: mesh}
	rcfg := cfg.RegCache
	if wropt {
		opts.L2 = l2
	}
	ctl.regs = regcache.New(eng, rcfg, bb, split, opts)

	g := gpu.New(eng, cfg.GPU, cfg.L1, u, l2)
	return &system{
		eng: eng, cfg: cfg, mmu: u, l2: l2, gpu: g,
		collectExtra: func(r *Result) {
			cyc := g.Cycles()
			r.FlashReadGBps = gbps(bb.TotalBytesRead(), cyc)
			r.FlashWriteGBps = gbps(bb.TotalBytesProgrammed(), cyc)
			r.PlaneWrites = planeWrites(bb)
			r.Extra["reg_hits"] = float64(ctl.regs.Hits.Value())
			r.Extra["reg_evictions"] = float64(ctl.regs.Evictions.Value())
			r.Extra["reg_read_hits"] = float64(ctl.regs.ReadHits.Value())
			r.Extra["reg_migrations"] = float64(ctl.regs.Migrations.Value())
			r.Extra["pinned_pages"] = float64(ctl.regs.PinnedPages.Value())
			r.Extra["log_programs"] = float64(split.LogPrograms.Value())
			r.Extra["gc_merges"] = float64(split.Merges.Value())
			r.Extra["stalled_writes"] = float64(split.StalledWrites.Value())
			r.Extra["mesh_bytes"] = float64(mesh.Bytes.Value())
			r.Extra["demand_fills"] = float64(ctl.DemandFills.Value())
			r.Extra["prefetch_bytes"] = float64(ctl.PrefetchBytes.Value())
			r.Extra["reg_page_hits"] = float64(ctl.RegReadHits.Value())
			r.Extra["sense_merges"] = float64(ctl.SenseMerges.Value())
			r.Extra["translation_state_bytes"] = float64(split.StateBytes() + u.StateBytes())
			r.Extra["mapped_pages"] = float64(split.MappedPages())
			if ctl.pf != nil {
				r.Extra["prefetch_issued"] = float64(ctl.pf.Issued.Value())
				r.Extra["prefetch_gran"] = float64(ctl.pf.Granularity())
			}
		},
	}
}

// zngController is the per-channel flash controller array of Fig. 6a:
// it accepts L2 fill and write-back requests from the GPU crossbar,
// resolves them through the split FTL and register cache, and moves
// data over the flash mesh.
type zngController struct {
	eng    *sim.Engine
	bb     *flash.Backbone
	split  *ftl.Split
	regs   *regcache.Cache
	mesh   *noc.Mesh
	xbar   *noc.Xbar
	camLat sim.Tick

	// Read optimization (nil when rdopt is off).
	pf *prefetch.Unit
	l2 *cache.Cache

	// In-flight array senses, indexed by page, merge concurrent fills
	// of one flash page into a single sense; readRegs model the plane
	// cache registers holding recently sensed pages (Section II-B),
	// which serve repeated reads without touching the array again.
	senseIdx  *intmap.Map // page -> index in senses
	senses    []*sense    // in flight, in no particular order
	senseRecs sim.FreeList[sense]
	readRegs  []pageRing

	DemandFills   stats.Counter
	PrefetchBytes stats.Counter
	RegReadHits   stats.Counter
	SenseMerges   stats.Counter
}

// pageRing is a tiny LRU of sensed pages (one per plane register).
type pageRing struct {
	pages []uint64
}

func (r *pageRing) contains(page uint64) bool {
	for _, p := range r.pages {
		if p == page {
			return true
		}
	}
	return false
}

func (r *pageRing) push(page uint64) {
	if r.contains(page) {
		return
	}
	if len(r.pages) == cap(r.pages) {
		copy(r.pages, r.pages[1:])
		r.pages = r.pages[:len(r.pages)-1]
	}
	r.pages = append(r.pages, page)
}

// sense is one flash-page array read in flight and the fills waiting
// on it.
type sense struct {
	z       *zngController
	slot    int32 // index in z.senses
	page    uint64
	plane   int
	node    int
	waiters mem.Queue
}

// node returns the mesh/crossbar endpoint owning va's home plane.
func (z *zngController) node(va uint64) int {
	vb, _ := z.split.VBlock(va)
	return z.bb.PackageOf(z.split.PlaneOf(vb))
}

// The controller's per-request event handlers; each wraps the one
// pointer, so passing it as a sim.Handler allocates nothing.
type (
	stored    struct{ z *zngController } // store reached the controller
	commanded struct{ z *zngController } // read command reached the controller
	decoded   struct{ z *zngController } // row-decoder CAM search done
	delivered struct{ z *zngController } // fill crossed the mesh
)

func (h stored) Handle(arg any) {
	r := arg.(*mem.Request)
	h.z.regs.Write(r.Addr, r.Done, r)
}

func (h commanded) Handle(arg any) {
	r := arg.(*mem.Request)
	h.z.read(r, h.z.node(r.Addr))
}

func (h decoded) Handle(arg any) {
	r := arg.(*mem.Request)
	h.z.decode(r, h.z.node(r.Addr))
}

func (h delivered) Handle(arg any) {
	z, r := h.z, arg.(*mem.Request)
	if r.Size > 128 && z.l2 != nil {
		ext := r.Size - 128
		z.PrefetchBytes.Add(uint64(ext))
		for off := 128; off < r.Size; off += 128 {
			z.l2.InstallPrefetch(r.Addr + uint64(off))
		}
	}
	r.Done.Handle(r)
}

// Access implements mem.Memory for L2 fills (reads) and write-backs /
// write-throughs (stores).
func (z *zngController) Access(r *mem.Request) {
	n := z.node(r.Addr)
	if r.Write {
		// Stores ride the crossbar to the controller, then enter the
		// register cache.
		z.xbar.Send(n, r.Size, stored{z}, r)
		return
	}
	// Reads: command packet to the controller first.
	z.xbar.Send(n, 16, commanded{z}, r)
}

func (z *zngController) read(r *mem.Request, n int) {
	// Newest data may still sit in a flash write register.
	if z.regs.ReadCheck(r.Addr) {
		z.mesh.Send(n, n, r.Size, r.Done, r)
		return
	}

	// Predictor update and cutoff test happen at miss time (Fig. 8a).
	if z.pf != nil && !r.Prefetch {
		if ext := z.pf.OnMiss(r); ext > 0 {
			r.Prefetch = false // demand request with a widened transfer
			r.Size += z.planPrefetch(r, ext)
		}
	}

	// A sense for this page already in flight: piggyback on it.
	if z.merge(r) {
		return
	}

	// The page may still sit in one of the plane's cache registers.
	z.eng.Schedule(z.camLat, decoded{z}, r)
}

// merge queues r on an in-flight sense of its page, if there is one.
func (z *zngController) merge(r *mem.Request) bool {
	slot, ok := z.senseIdx.Get(mem.PageAddr(r.Addr, z.bb.Cfg.PageBytes))
	if !ok {
		return false
	}
	z.SenseMerges.Inc()
	z.senses[slot].waiters.Push(r)
	return true
}

// decode resolves r's flash location once the row decoder has
// searched: a plane-register hit, a merge into a sense issued
// meanwhile, or a new array sense.
func (z *zngController) decode(r *mem.Request, n int) {
	page := mem.PageAddr(r.Addr, z.bb.Cfg.PageBytes)
	loc := z.split.ReadLoc(r.Addr)
	if z.readRegs[loc.Plane].contains(page) {
		z.RegReadHits.Inc()
		z.deliver(r, n)
		return
	}
	if z.merge(r) {
		return
	}
	s := z.senseRecs.Get()
	s.z, s.slot = z, int32(len(z.senses))
	s.page, s.plane, s.node = page, loc.Plane, n
	s.waiters.Push(r)
	z.senses = append(z.senses, s)
	z.senseIdx.Put(page, s.slot)
	z.DemandFills.Inc()
	z.bb.Plane(loc.Plane).Read(loc.Block, loc.Page, s, nil)
}

// Handle implements sim.Handler: the array sense completed, so the
// page sits in a plane register and every waiting fill moves on.
func (s *sense) Handle(any) {
	z, node, waiters := s.z, s.node, s.waiters
	z.readRegs[s.plane].push(s.page)
	z.senseIdx.Delete(s.page)
	// The last sense in flight takes s's place in the index.
	last := z.senses[len(z.senses)-1]
	z.senses = z.senses[:len(z.senses)-1]
	if last != s {
		last.slot = s.slot
		z.senses[s.slot] = last
		z.senseIdx.Put(last.page, last.slot)
	}
	z.senseRecs.Put(s)
	for w := waiters.Pop(); w != nil; w = waiters.Pop() {
		z.deliver(w, node)
	}
}

// deliver moves a (possibly prefetch-widened) fill over the mesh and
// installs any extra lines into L2.
func (z *zngController) deliver(r *mem.Request, n int) {
	z.mesh.Send(n, n, r.Size, delivered{z}, r)
}

// planPrefetch clamps a prefetch extent to the flash page end.
func (z *zngController) planPrefetch(r *mem.Request, ext int) int {
	pageEnd := mem.PageAddr(r.Addr, z.bb.Cfg.PageBytes) + uint64(z.bb.Cfg.PageBytes)
	if r.Addr+uint64(128+ext) > pageEnd {
		ext = int(pageEnd - r.Addr - 128)
	}
	if ext < 0 {
		ext = 0
	}
	return ext
}

// planeWrites flattens per-plane program counts for the Fig. 8b
// heatmap. A backbone that never programmed returns nil, so its result
// document carries no all-zero array.
func planeWrites(bb *flash.Backbone) []uint64 {
	if bb.ArrayPrograms.Value() == 0 {
		return nil
	}
	out := make([]uint64, bb.Planes())
	for i := range out {
		out[i] = bb.Plane(i).Programs
	}
	return out
}
