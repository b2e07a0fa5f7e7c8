package cache

import (
	"slices"
	"testing"

	"zng/internal/config"
	"zng/internal/intmap"
	"zng/internal/mem"
	"zng/internal/rng"
	"zng/internal/sim"
	"zng/internal/stats"
)

// refCache is the bank-major cache the flat tag store replaced, kept as
// the differential-test reference: one slice of line structs per set,
// found through locate's divisions (bank g mod Banks, set
// (g/Banks) mod Sets of line number g).
type refCache struct {
	eng  *sim.Engine
	cfg  config.Cache
	next mem.Memory

	banks []*sim.Resource
	sets  [][]refLine // [bank*cfg.Sets + set][way]
	clock uint64

	mshrs    []mem.Queue
	mshrFree []int32
	mshrIdx  *intmap.Map
	overflow mem.Queue

	reqs sim.FreeList[mem.Request]

	OnEvict func(EvictInfo)

	Hits, Misses, MergedMisses stats.Counter
	WriteHits, WriteMisses     stats.Counter
	Evictions, Writebacks      stats.Counter
	PrefEvicted, PrefUnused    stats.Counter
	PinnedNow                  int
}

type refLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool
	accessed bool
	pinned   bool
	stamp    uint64
}

func newRefCache(eng *sim.Engine, cfg config.Cache, next mem.Memory) *refCache {
	nb := max(cfg.Banks, 1)
	c := &refCache{
		eng:     eng,
		cfg:     cfg,
		next:    next,
		sets:    make([][]refLine, nb*cfg.Sets),
		mshrs:   make([]mem.Queue, cfg.MSHRs),
		mshrIdx: intmap.New(cfg.MSHRs),
	}
	for i := cfg.MSHRs - 1; i >= 0; i-- {
		c.mshrFree = append(c.mshrFree, int32(i))
	}
	lines := make([]refLine, len(c.sets)*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.banks = make([]*sim.Resource, nb)
	for i := range c.banks {
		c.banks[i] = sim.NewResource(eng)
	}
	return c
}

func (c *refCache) lineAddr(addr uint64) uint64 { return mem.LineAddr(addr, c.cfg.LineBytes) }

func (c *refCache) locate(lineAddr uint64) (bankIdx int, setIdx int) {
	g := lineAddr / uint64(c.cfg.LineBytes)
	nb := uint64(len(c.banks))
	return int(g % nb), int((g / nb) % uint64(c.cfg.Sets))
}

func (c *refCache) set(lineAddr uint64) []refLine {
	b, s := c.locate(lineAddr)
	return c.sets[b*c.cfg.Sets+s]
}

func (c *refCache) Access(r *mem.Request) {
	b, _ := c.locate(c.lineAddr(r.Addr))
	c.banks[b].Acquire(1, refLookup{c}, r)
}

type (
	refLookup    struct{ c *refCache }
	refFilled    struct{ c *refCache }
	refAllocated struct{ c *refCache }
	refWritten   struct{ c *refCache }
)

func (h refLookup) Handle(arg any) {
	r := arg.(*mem.Request)
	h.c.resolve(r, h.c.lineAddr(r.Addr))
}

func (h refFilled) Handle(arg any) {
	f := arg.(*mem.Request)
	la := f.Addr
	h.c.reqs.Put(f)
	h.c.fill(la)
}

func (h refAllocated) Handle(arg any) {
	c, f := h.c, arg.(*mem.Request)
	la, r := f.Addr, f.Cause
	c.reqs.Put(f)
	c.install(la, false)
	if w := refFind(c.set(la), la); w >= 0 {
		c.set(la)[w].dirty = true
	}
	c.eng.Schedule(c.cfg.WriteLat, r.Done, r)
}

func (h refWritten) Handle(arg any) { h.c.reqs.Put(arg.(*mem.Request)) }

func (c *refCache) request(la uint64, done sim.Handler) *mem.Request {
	f := c.reqs.Get()
	f.Addr, f.Size, f.Done = la, c.cfg.LineBytes, done
	return f
}

func (c *refCache) resolve(r *mem.Request, la uint64) {
	c.clock++
	set := c.set(la)
	way := refFind(set, la)
	if r.Write {
		c.resolveWrite(r, la, set, way)
		return
	}
	if way >= 0 {
		set[way].accessed = true
		set[way].stamp = c.clock
		c.Hits.Inc()
		c.eng.Schedule(c.cfg.ReadLat, r.Done, r)
		return
	}
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

func (c *refCache) resolveWrite(r *mem.Request, la uint64, set []refLine, way int) {
	if c.cfg.ReadOnly {
		if way >= 0 && set[way].pinned {
			set[way].dirty = true
			set[way].stamp = c.clock
			c.WriteHits.Inc()
			c.eng.Schedule(c.cfg.WriteLat, r.Done, r)
			return
		}
		if way >= 0 {
			set[way].valid = false
		}
		c.WriteMisses.Inc()
		c.next.Access(r)
		return
	}
	if way >= 0 {
		ln := &set[way]
		ln.stamp = c.clock
		ln.accessed = true
		c.WriteHits.Inc()
		if c.cfg.WriteBack {
			ln.dirty = true
			c.eng.Schedule(c.cfg.WriteLat, r.Done, r)
		} else {
			c.next.Access(r)
		}
		return
	}
	c.WriteMisses.Inc()
	if !c.cfg.WriteBack {
		c.next.Access(r)
		return
	}
	fill := c.request(la, refAllocated{c})
	fill.PC, fill.Warp, fill.SM, fill.Cause = r.PC, r.Warp, r.SM, r
	c.next.Access(fill)
}

func (c *refCache) issueMiss(r *mem.Request, la uint64) {
	n := len(c.mshrFree) - 1
	slot := c.mshrFree[n]
	c.mshrFree = c.mshrFree[:n]
	c.mshrs[slot].Push(r)
	c.mshrIdx.Put(la, slot)
	fill := c.request(la, refFilled{c})
	fill.PC, fill.Warp, fill.SM, fill.Prefetch = r.PC, r.Warp, r.SM, r.Prefetch
	c.next.Access(fill)
}

func (c *refCache) fill(la uint64) {
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

func (c *refCache) drainOverflow() {
	for c.overflow.Len() > 0 && c.mshrIdx.Len() < c.cfg.MSHRs {
		r := c.overflow.Pop()
		la := c.lineAddr(r.Addr)
		if refFind(c.set(la), la) >= 0 {
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

func (c *refCache) install(la uint64, asPrefetch bool) bool {
	c.clock++
	set := c.set(la)
	if w := refFind(set, la); w >= 0 {
		if !asPrefetch {
			set[w].accessed = true
		}
		set[w].stamp = c.clock
		return true
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		oldest := ^uint64(0)
		for i := range set {
			if !set[i].pinned && set[i].stamp < oldest {
				oldest = set[i].stamp
				victim = i
			}
		}
	}
	if victim < 0 {
		return false
	}
	if set[victim].valid {
		c.evict(&set[victim])
	}
	set[victim] = refLine{
		tag: la, valid: true,
		prefetch: asPrefetch, accessed: !asPrefetch,
		stamp: c.clock,
	}
	return true
}

func (c *refCache) evict(ln *refLine) {
	c.Evictions.Inc()
	if ln.prefetch {
		c.PrefEvicted.Inc()
		if !ln.accessed {
			c.PrefUnused.Inc()
		}
	}
	if ln.dirty && c.cfg.WriteBack {
		c.Writebacks.Inc()
		wb := c.request(ln.tag, refWritten{c})
		wb.Write = true
		c.next.Access(wb)
	}
	if ln.pinned {
		c.PinnedNow--
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictInfo{Addr: ln.tag, Prefetch: ln.prefetch, Accessed: ln.accessed, Dirty: ln.dirty})
	}
}

func (c *refCache) InstallPrefetch(addr uint64) bool { return c.install(c.lineAddr(addr), true) }

func (c *refCache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	return refFind(c.set(la), la) >= 0
}

func (c *refCache) PinDirty(addr uint64) bool {
	la := c.lineAddr(addr)
	if !c.install(la, false) {
		return false
	}
	set := c.set(la)
	w := refFind(set, la)
	if !set[w].pinned {
		set[w].pinned = true
		c.PinnedNow++
	}
	set[w].dirty = true
	return true
}

func (c *refCache) Unpin(addr uint64) {
	la := c.lineAddr(addr)
	set := c.set(la)
	if w := refFind(set, la); w >= 0 && set[w].pinned {
		set[w].pinned = false
		c.PinnedNow--
	}
}

func refFind(set []refLine, la uint64) int {
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return i
		}
	}
	return -1
}

// arrival is one request as the next level saw it.
type arrival struct {
	at              sim.Tick
	addr            uint64
	size            int
	write, prefetch bool
}

// recorder is a next level that logs every arrival and completes each
// request after a latency set by its address, so fills of different
// lines return out of order.
type recorder struct {
	eng *sim.Engine
	log []arrival
}

func (m *recorder) Access(r *mem.Request) {
	m.log = append(m.log, arrival{m.eng.Now(), r.Addr, r.Size, r.Write, r.Prefetch})
	m.eng.Schedule(40+sim.Tick(r.Addr/128%64), r.Done, r)
}

// completion is a driven request finishing: its op number and tick.
type completion struct {
	op int
	at sim.Tick
}

// side is one cache under the lockstep driver and what it did.
type side struct {
	eng    *sim.Engine
	next   *recorder
	evicts []EvictInfo
	done   []completion
}

func newSide() *side {
	eng := sim.NewEngine()
	return &side{eng: eng, next: &recorder{eng: eng}}
}

func (s *side) request(op int, addr uint64, write bool) *mem.Request {
	return &mem.Request{Addr: addr, Size: 128, Write: write, Done: sim.Func(func() {
		s.done = append(s.done, completion{op, s.eng.Now()})
	})}
}

func flatCounters(c *Cache) [10]uint64 {
	return [10]uint64{c.Hits.Value(), c.Misses.Value(), c.MergedMisses.Value(),
		c.WriteHits.Value(), c.WriteMisses.Value(), c.Evictions.Value(), c.Writebacks.Value(),
		c.PrefEvicted.Value(), c.PrefUnused.Value(), uint64(c.PinnedNow)}
}

func refCounters(c *refCache) [10]uint64 {
	return [10]uint64{c.Hits.Value(), c.Misses.Value(), c.MergedMisses.Value(),
		c.WriteHits.Value(), c.WriteMisses.Value(), c.Evictions.Value(), c.Writebacks.Value(),
		c.PrefEvicted.Value(), c.PrefUnused.Value(), uint64(c.PinnedNow)}
}

// TestCacheDifferential drives the flat tag store and the bank-major
// reference in lockstep through random reads, writes, prefetch
// installs, pins and unpins, on the shipped geometries, a
// non-power-of-two set count, a small banked cache, a row pair at the
// most ways the rank field orders, a direct-mapped cache and a small
// read-only banked cache under pin-heavy traffic. After every step the
// residency of every line touched, every counter, the eviction stream,
// the next level's request sequence and the completions must agree.
func TestCacheDifferential(t *testing.T) {
	def := config.Default()
	l2x3 := def.L2STT
	l2x3.Sets = def.L2SRAM.Sets * 3 // an abl-l2-style override, 3x the SRAM L2's sets
	for _, g := range []struct {
		name string
		cfg  config.Cache
		pins int // op kinds added to the 20 base ones, half pins, half unpins
	}{
		{"L1", def.L1, 0},
		{"L2SRAM", def.L2SRAM, 0},
		{"L2STT", def.L2STT, 0},
		{"L2STT-3072-sets", l2x3, 0},
		{"banked-4x2", config.Cache{Sets: 4, Ways: 2, LineBytes: 128, Banks: 4,
			ReadLat: 1, WriteLat: 1, MSHRs: 4, WriteBack: true}, 0},
		{"max-ways", config.Cache{Sets: 2, Ways: config.MaxWays, LineBytes: 128, Banks: 1,
			ReadLat: 1, WriteLat: 1, MSHRs: 8, WriteBack: true}, 0},
		{"direct-mapped", config.Cache{Sets: 16, Ways: 1, LineBytes: 128, Banks: 2,
			ReadLat: 1, WriteLat: 1, MSHRs: 4, WriteBack: true}, 0},
		{"read-only-pinned", config.Cache{Sets: 2, Ways: 4, LineBytes: 128, Banks: 2,
			ReadLat: 1, WriteLat: 5, MSHRs: 4, ReadOnly: true}, 4},
	} {
		t.Run(g.name, func(t *testing.T) { runLockstep(t, g.cfg, g.pins) })
	}
}

func runLockstep(t *testing.T, cfg config.Cache, pins int) {
	flat, ref := newSide(), newSide()
	c := New(flat.eng, cfg, flat.next, "flat")
	rc := newRefCache(ref.eng, cfg, ref.next)
	c.OnEvict = func(e EvictInfo) { flat.evicts = append(flat.evicts, e) }
	rc.OnEvict = func(e EvictInfo) { ref.evicts = append(ref.evicts, e) }

	r := rng.New(uint64(cfg.Sets*cfg.Ways) ^ uint64(cfg.Banks))
	lb := uint64(cfg.LineBytes)
	rows := uint64(max(cfg.Banks, 1) * cfg.Sets)
	// Most traffic lands on a few hot rows, over three times as many
	// lines as a row has ways, so rows fill, evict and pin up; the rest
	// is spread over a large address space.
	hot := []uint64{0, rows - 1, r.Uint64n(rows), r.Uint64n(rows)}
	var touched, pinned []uint64
	seen := map[uint64]bool{}
	pick := func() uint64 {
		line := r.Uint64n(1 << 34)
		if r.Intn(8) != 0 {
			line = r.Uint64n(uint64(3*cfg.Ways))*rows + hot[r.Intn(len(hot))]
		}
		if !seen[line] {
			seen[line] = true
			touched = append(touched, line*lb)
		}
		return line*lb + r.Uint64n(lb)
	}

	// A touched line resident at one check and gone at the next without
	// an eviction was invalidated by a write; a pin or prefetch install
	// that found every way pinned was bypassed.
	resident := map[uint64]bool{}
	var invalidated, bypassed, evictsSeen int
	check := func(op int) {
		t.Helper()
		if got, want := flatCounters(c), refCounters(rc); got != want {
			t.Fatalf("op %d: counters %v, reference %v", op, got, want)
		}
		if !slices.Equal(flat.evicts, ref.evicts) {
			t.Fatalf("op %d: eviction streams diverged (%d vs %d evictions)", op, len(flat.evicts), len(ref.evicts))
		}
		if !slices.Equal(flat.next.log, ref.next.log) {
			t.Fatalf("op %d: next-level request sequences diverged (%d vs %d requests)", op, len(flat.next.log), len(ref.next.log))
		}
		if !slices.Equal(flat.done, ref.done) {
			t.Fatalf("op %d: completions diverged (%d vs %d)", op, len(flat.done), len(ref.done))
		}
		for _, h := range hot {
			if row := c.words[h*uint64(cfg.Ways) : (h+1)*uint64(cfg.Ways)]; !ranksDense(row) {
				t.Fatalf("op %d: row %d ranks are not 0 to k-1: %#x", op, h, row)
			}
		}
		evicted := map[uint64]bool{}
		for _, e := range flat.evicts[evictsSeen:] {
			evicted[e.Addr] = true
		}
		evictsSeen = len(flat.evicts)
		for _, a := range touched {
			got, want := c.Contains(a), rc.Contains(a)
			if got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, a, got, want)
			}
			if resident[a] && !got && !evicted[a] {
				invalidated++
			}
			resident[a] = got
		}
	}

	const ops = 4000
	for op := 0; op < ops; op++ {
		// Op kinds 0-15 read and write, 16-17 install prefetches, 18
		// pins and 19 unpins. The pins extra kinds alternate between
		// pinning and unpinning.
		k := r.Intn(20 + pins)
		if k >= 20 {
			k = 18 + k%2
		}
		switch {
		case k < 16: // reads and writes, 3:1
			addr, write := pick(), k >= 12
			c.Access(flat.request(op, addr, write))
			rc.Access(ref.request(op, addr, write))
		case k < 18:
			addr := pick()
			got, want := c.InstallPrefetch(addr), rc.InstallPrefetch(addr)
			if got != want {
				t.Fatalf("op %d: InstallPrefetch(%#x) = %v, reference %v", op, addr, got, want)
			}
			if !got {
				bypassed++
			}
		case k == 18:
			addr := pick()
			got, want := c.PinDirty(addr), rc.PinDirty(addr)
			if got != want {
				t.Fatalf("op %d: PinDirty(%#x) = %v, reference %v", op, addr, got, want)
			}
			if !got {
				bypassed++
			}
			pinned = append(pinned, addr)
		case len(pinned) > 0:
			i := r.Intn(len(pinned))
			c.Unpin(pinned[i])
			rc.Unpin(pinned[i])
			pinned = slices.Delete(pinned, i, i+1)
		}
		// Half the ops issue in the same tick as the one before, so
		// misses merge and overflow the MSHRs.
		var d sim.Tick
		if r.Intn(2) == 0 {
			d = sim.Tick(r.Uint64n(64))
		}
		flat.eng.RunFor(d)
		ref.eng.RunFor(d)
		check(op)
	}
	flat.eng.Run()
	ref.eng.Run()
	check(ops)
	if flat.eng.Now() != ref.eng.Now() {
		t.Fatalf("drained at tick %d, reference %d", flat.eng.Now(), ref.eng.Now())
	}
	for base := 0; base < len(c.words); base += cfg.Ways {
		if row := c.words[base : base+cfg.Ways]; !ranksDense(row) {
			t.Fatalf("row %d ranks are not 0 to k-1: %#x", base/cfg.Ways, row)
		}
	}
	if c.Evictions.Value() == 0 || c.Hits.Value() == 0 || c.MergedMisses.Value() == 0 {
		t.Fatalf("stream too tame to compare: counters %v", flatCounters(c))
	}
	if cfg.ReadOnly && invalidated == 0 {
		t.Fatal("no write invalidated a resident line")
	}
	if pins > 0 && bypassed == 0 {
		t.Fatal("no install found its row all pinned")
	}
}
