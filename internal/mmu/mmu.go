// Package mmu models GPU address translation as described in Section
// II-A of the ZnG paper: per-SM L1 TLBs backed by a shared MMU with a
// highly-threaded page-table walker (32 threads), a page-walk cache,
// and a page-fault handler hook.
//
// Two translation regimes matter to the evaluation:
//
//   - Baseline platforms walk an in-memory page table on TLB misses
//     (hundreds of cycles per walk, limited walker concurrency).
//   - ZnG stores the read-only data-block mapping table (DBMT) of its
//     split FTL inside the MMU's SRAM (~80 KB, Section III-B), so a
//     TLB miss costs only the DBMT lookup — the "zero-overhead FTL".
//
// This package charges the time; a platform picks the regime through
// the walk latency it passes to New. Addresses leave the MMU
// unchanged: each backend maps them itself (ZnG's flash controller
// through the split FTL's tables).
package mmu

import (
	"zng/internal/config"
	"zng/internal/intmap"
	"zng/internal/mem"
	"zng/internal/sim"
	"zng/internal/stats"
)

// PageBytes is the translation granularity.
const PageBytes = 4096

// tlb is a set-associative translation buffer with exact per-set LRU
// replacement, kept in intmap's dense LRU index with every set's slots
// reserved up front: O(1) hit promotion and eviction with no map
// overhead and no O(capacity) victim scan. A single set with as many
// ways as entries — the simulator's default geometry — is exactly the
// fully-associative LRU buffer of Sections II-A/III-B.
type tlb struct {
	sets int
	idx  *intmap.LRU[struct{}] // page -> slot
}

// newTLB builds the default fully-associative geometry.
func newTLB(capacity int) *tlb { return newSetAssocTLB(1, capacity) }

// newSetAssocTLB builds a sets x ways buffer.
func newSetAssocTLB(sets, ways int) *tlb {
	return &tlb{sets: sets, idx: intmap.NewLRU[struct{}](sets, ways, true)}
}

func (t *tlb) set(page uint64) int { return int(page % uint64(t.sets)) }

func (t *tlb) lookup(page uint64) bool {
	slot, ok := t.idx.Get(page)
	if ok {
		t.idx.Touch(t.set(page), slot)
	}
	return ok
}

// insert fills page's set, evicting that set's LRU entry first when
// the set is full — including the degenerate re-insert-at-capacity
// case, where page itself is the LRU victim and cycles through a
// fresh slot, exactly as the stamp-based buffer behaved.
func (t *tlb) insert(page uint64) {
	s := t.set(page)
	if t.idx.Full(s) {
		t.idx.Evict(s)
	}
	if slot, ok := t.idx.Get(page); ok {
		t.idx.Touch(s, slot)
		return
	}
	t.idx.Insert(s, page, struct{}{})
}

// invalidate drops page if present.
func (t *tlb) invalidate(page uint64) { t.idx.Delete(t.set(page), page) }

// Unit is the shared MMU plus the per-SM L1 TLBs.
type Unit struct {
	eng *sim.Engine
	cfg config.MMU

	l1        []*tlb
	walkCache *tlb
	walkers   *sim.Pool

	// WalkLat is the full page-table walk latency charged on a
	// walk-cache miss. For ZnG platforms it is cfg.DBMTLatency (the
	// in-MMU block-mapping lookup); for baselines it is
	// WalkLevels*WalkMemLatency.
	WalkLat sim.Tick
	// WalkCacheLat is charged when the walk hits the page-walk cache.
	WalkCacheLat sim.Tick

	// Fault, if non-nil, is consulted on every translation; returning
	// true means the page is non-resident and the platform calls
	// resume.Handle(nil) when the fault is serviced (Hetero's host
	// path).
	Fault func(va uint64, resume sim.Handler) bool

	xlates sim.FreeList[xlate]

	// Statistics.
	L1Hits, L1Misses stats.Counter
	WalkCacheHits    stats.Counter
	Walks            stats.Counter
	Faults           stats.Counter
}

// New creates an MMU for sms streaming multiprocessors. walkLat is the
// charge for a full walk (see Unit.WalkLat). cfg must be valid
// (config.Config.Validate).
func New(eng *sim.Engine, cfg config.MMU, sms int, walkLat sim.Tick) *Unit {
	u := &Unit{
		eng:          eng,
		cfg:          cfg,
		walkCache:    newTLB(cfg.WalkCacheEnt),
		walkers:      sim.NewPool(eng, cfg.WalkerThreads),
		WalkLat:      walkLat,
		WalkCacheLat: 8,
	}
	for i := 0; i < sms; i++ {
		u.l1 = append(u.l1, newTLB(cfg.L1TLBEntries))
	}
	return u
}

// BaselineWalkLat returns the full-walk latency for page-table-in-
// memory platforms.
func BaselineWalkLat(cfg config.MMU) sim.Tick {
	return sim.Tick(cfg.WalkLevels) * cfg.WalkMemLatency
}

// xlate is one translation in flight. It is its own event handler:
// walk completion, fault resumption and the final hand-off all arrive
// at it, and stage says which.
type xlate struct {
	u     *Unit
	r     *mem.Request
	done  sim.Handler
	sm    int
	stage xlateStage
	// delay is charged between the fault check and the hand-off; it
	// applies only when deferred (a completed walk hands off at once).
	delay    sim.Tick
	deferred bool
}

type xlateStage uint8

const (
	walking   xlateStage = iota // on a walker thread
	faulting                    // waiting for the platform's fault service
	finishing                   // hand-off latency elapsing
)

// Request translates r.Addr, a virtual address issued by the given SM,
// then delivers done.Handle(r). Latency is charged per the
// TLB/walk/fault path.
func (u *Unit) Request(sm int, r *mem.Request, done sim.Handler) {
	page := r.Addr / PageBytes
	x := u.xlates.Get()
	x.u, x.r, x.done, x.sm = u, r, done, sm

	if u.l1[sm].lookup(page) {
		u.L1Hits.Inc()
		// A TLB hit still requires residency (Hetero can evict pages).
		x.delay, x.deferred = 1, true
		x.checkFault()
		return
	}
	u.L1Misses.Inc()

	if u.walkCache.lookup(page) {
		u.WalkCacheHits.Inc()
		u.l1[sm].insert(page)
		x.delay, x.deferred = u.WalkCacheLat, true
		x.checkFault()
		return
	}

	// Full walk on one of the walker threads.
	u.Walks.Inc()
	x.stage = walking
	u.walkers.Acquire(u.WalkLat, x, nil)
}

// Handle implements sim.Handler for the translation's own events.
func (x *xlate) Handle(any) {
	switch x.stage {
	case walking:
		page := x.r.Addr / PageBytes
		x.u.walkCache.insert(page)
		x.u.l1[x.sm].insert(page)
		x.checkFault()
	case faulting:
		x.resume()
	default:
		x.finish()
	}
}

// checkFault consults the platform's residency hook before the
// hand-off.
func (x *xlate) checkFault() {
	u := x.u
	if u.Fault != nil {
		x.stage = faulting
		if u.Fault(x.r.Addr, x) {
			u.Faults.Inc()
			return // the platform resumes us
		}
	}
	x.resume()
}

func (x *xlate) resume() {
	if x.deferred {
		x.stage = finishing
		x.u.eng.Schedule(x.delay, x, nil)
		return
	}
	x.finish()
}

func (x *xlate) finish() {
	u, r, done := x.u, x.r, x.done
	u.xlates.Put(x)
	done.Handle(r)
}

// InvalidatePage drops a page from every TLB level (used when the
// Hetero platform evicts a resident page, and by the ZnG helper thread
// after garbage collection remaps blocks).
func (u *Unit) InvalidatePage(page uint64) {
	for _, t := range u.l1 {
		t.invalidate(page)
	}
	u.walkCache.invalidate(page)
}

// StateBytes reports the allocated footprint of every TLB level —
// the MMU's share of the translation state the scale-ladder test
// tracks.
func (u *Unit) StateBytes() uint64 {
	b := u.walkCache.idx.StateBytes()
	for _, t := range u.l1 {
		b += t.idx.StateBytes()
	}
	return b
}

// L1HitRate reports the aggregate L1 TLB hit rate.
func (u *Unit) L1HitRate() float64 {
	t := u.L1Hits.Value() + u.L1Misses.Value()
	if t == 0 {
		return 0
	}
	return float64(u.L1Hits.Value()) / float64(t)
}
