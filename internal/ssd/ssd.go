// Package ssd models the SSD module that HybridGPU embeds behind the
// GPU L2 cache (Fig. 1a): a request dispatcher, the SSD engine (a few
// low-power embedded cores executing the page-mapped FTL firmware — the
// component Fig. 4d blames for 67% of HybridGPU's memory latency), a
// single-package DRAM read/write buffer on a 32-bit bus, and legacy
// shared-bus flash channels to the Z-NAND backbone.
package ssd

import (
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/intmap"
	"zng/internal/mem"
	"zng/internal/noc"
	"zng/internal/sim"
	"zng/internal/stats"
)

// Module is the embedded SSD. It implements mem.Memory for 128 B GPU
// sector requests.
type Module struct {
	eng *sim.Engine
	cfg config.SSDEngine

	dispatch *sim.Resource
	engine   *sim.Pool
	bufPort  *sim.Port
	channels []*noc.Bus

	BB  *flash.Backbone
	FTL *ftl.PageMapped

	buf *pageBuffer
	ops sim.FreeList[op]

	// Statistics.
	BufHits, BufMisses stats.Counter
	Flushes            stats.Counter
	ReadFills          stats.Counter
}

// New assembles the module over its own Z-NAND backbone.
func New(eng *sim.Engine, ecfg config.SSDEngine, fcfg config.Flash, tcfg config.FTL) *Module {
	bb := flash.New(eng, fcfg)
	m := &Module{
		eng:      eng,
		cfg:      ecfg,
		dispatch: sim.NewResource(eng),
		engine:   sim.NewPool(eng, ecfg.Cores),
		bufPort:  sim.NewPort(eng, config.GBpsToBytesPerTick(ecfg.DRAMBufGBps), ecfg.DRAMBufLat),
		BB:       bb,
		FTL:      ftl.NewPageMapped(eng, bb, tcfg),
		buf:      newPageBuffer(int(ecfg.DRAMBufBytes / int64(fcfg.PageBytes))),
	}
	for i := 0; i < fcfg.Channels; i++ {
		m.channels = append(m.channels, noc.NewBus(eng, config.GBpsToBytesPerTick(fcfg.ChannelGBps), 2))
	}
	return m
}

// Access services one GPU sector request: dispatcher queueing, engine
// firmware time, then buffer hit or flash fill.
func (m *Module) Access(r *mem.Request) {
	m.dispatch.Acquire(m.cfg.DispatchLat, dispatched{m}, r)
}

// The module's per-request event handlers; each wraps the one
// pointer, so passing it as a sim.Handler allocates nothing.
type (
	dispatched struct{ m *Module } // dispatcher done: queue for the firmware
	translated struct{ m *Module } // firmware done: buffer or flash
)

func (h dispatched) Handle(arg any) {
	h.m.engine.Acquire(h.m.cfg.FTLLatPerReq, translated{h.m}, arg)
}

func (h translated) Handle(arg any) { h.m.afterEngine(arg.(*mem.Request)) }

// op is one flash-side operation in flight: a read fill (sense, then
// the channel transfer, then the buffer) or a dirty-page flush. It is
// its own event handler, and stage says which step just completed.
type op struct {
	m     *Module
	r     *mem.Request // the read being filled; nil for a flush
	page  uint64
	ch    *noc.Bus
	stage opStage
}

type opStage uint8

const (
	sensed   opStage = iota // fill: page read from its plane
	moved                   // fill: page crossed the channel
	flushing                // flush: the firmware has prepared the program
)

func (m *Module) afterEngine(r *mem.Request) {
	page := mem.PageAddr(r.Addr, m.BB.Cfg.PageBytes)
	if m.buf.touch(page, r.Write) {
		m.BufHits.Inc()
		m.bufPort.Send(r.Size, r, nil)
		return
	}
	m.BufMisses.Inc()

	if r.Write {
		// Write-allocate without fetch: the buffer page will be flushed
		// whole. (Flash pages are written as units; sub-page residue is
		// folded into the flush.)
		m.insert(page, true)
		m.bufPort.Send(r.Size, r, nil)
		return
	}

	// Read fill: sense the page from its plane, move it over the legacy
	// channel bus, install, then serve the sector from the buffer.
	m.ReadFills.Inc()
	loc := m.FTL.Lookup(page)
	o := m.ops.Get()
	o.m, o.r, o.page, o.ch, o.stage = m, r, page, m.channels[m.BB.ChannelOf(loc.Plane)], sensed
	m.BB.Plane(loc.Plane).Read(loc.Block, loc.Page, o, nil)
}

// Handle implements sim.Handler for the operation's own events.
func (o *op) Handle(any) {
	m := o.m
	switch o.stage {
	case sensed:
		o.stage = moved
		o.ch.Send(m.BB.Cfg.PageBytes, o, nil)
	case moved:
		r, page := o.r, o.page
		m.ops.Put(o)
		m.insert(page, false)
		m.bufPort.Send(r.Size, r, nil)
	default:
		victim := o.page
		m.ops.Put(o)
		m.FTL.WritePage(victim, nil, nil)
		// The channel transfer overlaps the program; charge its occupancy.
		cur := m.FTL.Lookup(victim)
		m.channels[m.BB.ChannelOf(cur.Plane)].Send(m.BB.Cfg.PageBytes, nil, nil)
	}
}

// insert adds a page to the buffer, flushing a dirty victim to flash.
func (m *Module) insert(page uint64, dirty bool) {
	victim, vdirty, evicted := m.buf.insert(page, dirty)
	if !evicted || !vdirty {
		return
	}
	m.Flushes.Inc()
	// Flush: engine prepares the program, channel moves the page, plane
	// programs it.
	o := m.ops.Get()
	o.m, o.page, o.stage = m, victim, flushing
	m.engine.Acquire(m.cfg.FTLLatPerReq, o, nil)
}

// EngineBusyTicks reports cumulative firmware occupancy (Fig. 4d).
func (m *Module) EngineBusyTicks() sim.Tick { return m.engine.BusyTicks() }

// BufferBusyTicks reports DRAM-buffer bus occupancy.
func (m *Module) BufferBusyTicks() sim.Tick { return m.bufPort.BusyTicks() }

// ChannelBytes reports total bytes moved over the legacy channels.
func (m *Module) ChannelBytes() uint64 {
	var n uint64
	for _, c := range m.channels {
		n += c.Bytes.Value()
	}
	return n
}

// pageBuffer is the page-granularity LRU read/write buffer held in the
// module's internal DRAM. Resident pages live in dense slots linked
// into an exact LRU list (MRU at head), resolved through a page ->
// slot index. The slots grow with the resident set up to the
// capacity, so the buffer's host memory tracks the pages a run touches
// rather than the 2 GB it models; eviction takes the list tail.
type pageBuffer struct {
	cap        int
	pages      []uint64
	dirty      []bool
	prev, next []int32 // LRU list links; -1 ends the list
	head, tail int32
	idx        *intmap.Map
}

func newPageBuffer(capacity int) *pageBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &pageBuffer{cap: capacity, head: -1, tail: -1, idx: intmap.New(0)}
}

func (b *pageBuffer) unlink(s int32) {
	if b.prev[s] >= 0 {
		b.next[b.prev[s]] = b.next[s]
	} else {
		b.head = b.next[s]
	}
	if b.next[s] >= 0 {
		b.prev[b.next[s]] = b.prev[s]
	} else {
		b.tail = b.prev[s]
	}
}

func (b *pageBuffer) pushFront(s int32) {
	b.prev[s], b.next[s] = -1, b.head
	if b.head >= 0 {
		b.prev[b.head] = s
	} else {
		b.tail = s
	}
	b.head = s
}

// promote makes slot s the most recently used.
func (b *pageBuffer) promote(s int32) {
	if b.head != s {
		b.unlink(s)
		b.pushFront(s)
	}
}

// touch reports a hit, refreshing LRU state and dirtying on writes.
func (b *pageBuffer) touch(page uint64, write bool) bool {
	s, ok := b.idx.Get(page)
	if !ok {
		return false
	}
	b.promote(s)
	if write {
		b.dirty[s] = true
	}
	return true
}

// insert adds a page, evicting the LRU entry if full. It returns the
// victim and its dirtiness.
func (b *pageBuffer) insert(page uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	if s, ok := b.idx.Get(page); ok {
		b.promote(s)
		b.dirty[s] = b.dirty[s] || dirty
		return 0, false, false
	}
	var s int32
	if len(b.pages) >= b.cap {
		s = b.tail
		victim, victimDirty, evicted = b.pages[s], b.dirty[s], true
		b.unlink(s)
		b.idx.Delete(victim)
	} else {
		s = int32(len(b.pages))
		b.pages = append(b.pages, 0)
		b.dirty = append(b.dirty, false)
		b.prev = append(b.prev, -1)
		b.next = append(b.next, -1)
	}
	b.pages[s], b.dirty[s] = page, dirty
	b.pushFront(s)
	b.idx.Put(page, s)
	return victim, victimDirty, evicted
}

// Len reports resident pages (tests).
func (b *pageBuffer) Len() int { return b.idx.Len() }
