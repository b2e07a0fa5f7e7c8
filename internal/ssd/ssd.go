// Package ssd models the SSD module that HybridGPU embeds behind the
// GPU L2 cache (Fig. 1a): a request dispatcher, the SSD engine (a few
// low-power embedded cores executing the page-mapped FTL firmware — the
// component Fig. 4d blames for 67% of HybridGPU's memory latency), a
// single-package DRAM read/write buffer on a 32-bit bus, and legacy
// shared-bus flash channels to the Z-NAND backbone.
//
// The buffer is one set of an intmap.LRU over the resident pages, each
// carrying its dirty bit. Its slots grow with the resident set up to
// the capacity, so its host memory tracks the pages a run touches
// rather than the 2 GB it models. Each channel is one sim.Port that
// every package on it shares.
package ssd

import (
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/intmap"
	"zng/internal/mem"
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
	channels []*sim.Port

	BB  *flash.Backbone
	FTL *ftl.PageMapped

	buf *intmap.LRU[bool] // page -> dirty
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
		buf:      intmap.NewLRU[bool](1, int(ecfg.DRAMBufBytes/int64(fcfg.PageBytes)), false),
	}
	for i := 0; i < fcfg.Channels; i++ {
		m.channels = append(m.channels, sim.NewPort(eng, config.GBpsToBytesPerTick(fcfg.ChannelGBps), 2))
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
	ch    *sim.Port
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
	if touch(m.buf, page, r.Write) {
		m.BufHits.Inc()
		m.bufPort.Send(r.Size, r.Done, r)
		return
	}
	m.BufMisses.Inc()

	if r.Write {
		// Write-allocate without fetch: the buffer page will be flushed
		// whole. (Flash pages are written as units; sub-page residue is
		// folded into the flush.)
		m.install(page, true)
		m.bufPort.Send(r.Size, r.Done, r)
		return
	}

	// Read fill: sense the page from its plane, move it over the legacy
	// channel, install, then serve the sector from the buffer.
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
		m.install(page, false)
		m.bufPort.Send(r.Size, r.Done, r)
	default:
		victim := o.page
		m.ops.Put(o)
		m.FTL.WritePage(victim, nil, nil)
		// The channel transfer overlaps the program; charge its occupancy.
		cur := m.FTL.Lookup(victim)
		m.channels[m.BB.ChannelOf(cur.Plane)].Send(m.BB.Cfg.PageBytes, nil, nil)
	}
}

// install adds a page to the buffer, flushing a dirty victim to flash.
func (m *Module) install(page uint64, dirty bool) {
	victim, vdirty, evicted := insert(m.buf, page, dirty)
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

// ChannelBytes reports total bytes moved over the legacy channels.
func (m *Module) ChannelBytes() uint64 {
	var n uint64
	for _, c := range m.channels {
		n += c.Bytes()
	}
	return n
}

// touch reports whether page is buffered. A hit becomes the most
// recently used page, and a write dirties it.
func touch(buf *intmap.LRU[bool], page uint64, write bool) bool {
	s, ok := buf.Get(page)
	if !ok {
		return false
	}
	buf.Touch(0, s)
	if write {
		*buf.Val(s) = true
	}
	return true
}

// insert buffers page as the most recently used, dirty if dirty is. A
// page not yet buffered first evicts the least recently used one from
// a full buffer and returns that victim and its dirty bit.
func insert(buf *intmap.LRU[bool], page uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	if touch(buf, page, dirty) {
		return 0, false, false
	}
	if buf.Full(0) {
		victim, victimDirty = buf.Evict(0)
		evicted = true
	}
	buf.Insert(0, page, dirty)
	return victim, victimDirty, evicted
}
