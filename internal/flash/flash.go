// Package flash models the Z-NAND backbone of the ZnG paper: 16
// channels x 1 package x 8 dies x 8 planes of single-level-cell
// vertical NAND with 3 us reads, 100 us programs, 100k P/E endurance,
// page-granularity access, in-order programming within a block, and
// the erase-before-write rule (Section II-B).
//
// The package models geometry, per-plane timing and block state, and
// the programmable row decoder of Section IV-A — the content-
// addressable memory that remaps log-block pages without any SSD
// firmware involvement. Mapping policy (which block holds what) lives
// in internal/ftl; interconnect timing (channel bus or mesh) lives in
// internal/noc and is wired by the platform.
package flash

import (
	"errors"
	"fmt"
	"math/bits"

	"zng/internal/config"
	"zng/internal/intmap"
	"zng/internal/sim"
	"zng/internal/stats"
)

// Errors returned by plane state transitions.
var (
	ErrOutOfOrder   = errors.New("flash: program violates in-order page rule")
	ErrNotErased    = errors.New("flash: program to a page that needs erase-before-write")
	ErrWornOut      = errors.New("flash: block exceeded its P/E cycle budget")
	ErrBadPage      = errors.New("flash: page index out of range")
	ErrInvalidBlock = errors.New("flash: block index out of range")
)

// Backbone is the full flash array.
type Backbone struct {
	eng    *sim.Engine
	Cfg    config.Flash
	planes []Plane

	// Block state is created lazily, as the FTL touches blocks. A
	// block's record is cut from backbone-wide slabs of block records
	// and valid-bit words, and index maps (plane, block id) to its
	// record number, which counts the records cut before it. A slab
	// holds a fixed number of records and is never moved, so a *Block
	// stays valid, and the 1,024 planes of Table I share a few
	// allocations; blocks never touched hold nothing at all.
	index *intmap.Map
	slabs []*[blockSlab]Block
	bits  []uint64 // the unused tail of the newest valid-bit slab

	// Statistics for Figs. 1b, 8b and 11.
	ArrayReads    stats.Counter
	ArrayPrograms stats.Counter
	Erases        stats.Counter
}

// blockSlab is the slab size, in records. A block slab is 56 KiB of
// records and, at Table I's 384 pages per block, 48 KiB of valid bits.
// Each is a whole number of 8 KiB pages above the Go allocator's 32 KiB
// small-object limit, so the allocator neither rounds it up to a size
// class nor prefixes a type header.
const blockSlab = 1024

// blocksPerPlane sizes the block index and the slab list in New: the
// benchmark's 64x cells touch one to eight blocks per plane, 3.3 on
// average at most, so a backbone this busy never regrows either.
const blocksPerPlane = 4

// New builds the backbone described by cfg.
func New(eng *sim.Engine, cfg config.Flash) *Backbone {
	n := cfg.Planes()
	b := &Backbone{eng: eng, Cfg: cfg, planes: make([]Plane, n),
		index: intmap.New(blocksPerPlane * n),
		slabs: make([]*[blockSlab]Block, 0, (blocksPerPlane*n+blockSlab-1)/blockSlab)}
	for i := range b.planes {
		b.planes[i] = Plane{bb: b, Index: i, res: *sim.NewResource(eng)}
	}
	return b
}

// record returns block record r.
func (b *Backbone) record(r int32) *Block { return &b.slabs[r/blockSlab][r%blockSlab] }

// newBlock cuts an erased block's state from the block slabs, files it
// under key in the index and returns its record number.
func (b *Backbone) newBlock(key uint64) int32 {
	r := int32(b.index.Len())
	words := (b.Cfg.PagesPerBlock + 63) / 64
	if r%blockSlab == 0 {
		b.slabs = append(b.slabs, new([blockSlab]Block))
		b.bits = make([]uint64, blockSlab*words)
	}
	bl := b.record(r)
	bl.pages, bl.valid = int32(b.Cfg.PagesPerBlock), b.bits[:words:words]
	b.bits = b.bits[words:]
	b.index.Put(key, r)
	return r
}

// Planes reports the plane count.
func (b *Backbone) Planes() int { return len(b.planes) }

// Plane returns plane i.
func (b *Backbone) Plane(i int) *Plane { return &b.planes[i] }

// Plane index layout is channel-major:
// plane = ((ch*pkgs + pkg)*dies + die)*planesPerDie + pl.

// ChannelOf reports the channel a plane belongs to.
func (b *Backbone) ChannelOf(plane int) int {
	per := b.Cfg.PackagesPerCh * b.Cfg.DiesPerPkg * b.Cfg.PlanesPerDie
	return plane / per
}

// PackageOf reports the global package index of a plane.
func (b *Backbone) PackageOf(plane int) int {
	per := b.Cfg.DiesPerPkg * b.Cfg.PlanesPerDie
	return plane / per
}

// PlaneInDie reports the within-die plane index.
func (b *Backbone) PlaneInDie(plane int) int { return plane % b.Cfg.PlanesPerDie }

// Packages reports the global package count.
func (b *Backbone) Packages() int { return b.Cfg.Channels * b.Cfg.PackagesPerCh }

// TotalBytesRead reports array-sensed traffic (page-granularity).
func (b *Backbone) TotalBytesRead() uint64 {
	return b.ArrayReads.Value() * uint64(b.Cfg.PageBytes)
}

// TotalBytesProgrammed reports array-programmed traffic.
func (b *Backbone) TotalBytesProgrammed() uint64 {
	return b.ArrayPrograms.Value() * uint64(b.Cfg.PageBytes)
}

// Block is the per-block state machine. Valid-page marks live in a
// bitset: at 384 pages per block that is 48 bytes instead of a 384-
// byte bool slice, and GC victim scoring (ValidCount) is six popcounts
// instead of a 384-element walk.
type Block struct {
	WritePtr   int // next in-order programmable page; PagesPerBlock = full
	EraseCount int
	id         int      // the block's id within its plane
	valid      []uint64 // bitset, bit i = page i holds live data
	pages      int32
	next       int32 // record number + 1 of the plane's next touched block; 0 ends the list
}

// ValidCount reports programmed-and-valid pages (GC victim scoring).
func (bl *Block) ValidCount() int {
	n := 0
	for _, w := range bl.valid {
		n += bits.OnesCount64(w)
	}
	return n
}

// Valid reports whether a page holds live data.
func (bl *Block) Valid(page int) bool {
	return page >= 0 && page < int(bl.pages) && bl.valid[page/64]&(1<<(page%64)) != 0
}

func (bl *Block) setValid(page int)   { bl.valid[page/64] |= 1 << (page % 64) }
func (bl *Block) clearValid(page int) { bl.valid[page/64] &^= 1 << (page % 64) }

func (bl *Block) clearAll() {
	for i := range bl.valid {
		bl.valid[i] = 0
	}
}

func (bl *Block) setAll() {
	for i := range bl.valid {
		bl.valid[i] = ^uint64(0)
	}
	if tail := bl.pages % 64; tail != 0 {
		bl.valid[len(bl.valid)-1] = 1<<tail - 1
	}
}

// Plane owns a set of blocks and a serialized array (one array
// operation at a time, tR/tPROG/tERASE occupancy).
type Plane struct {
	bb    *Backbone
	Index int
	res   sim.Resource

	// head and tail are the record numbers + 1 (0: none) of the
	// plane's lowest and highest touched block. Touched blocks are
	// linked in ascending id order through Block.next, so EachBlock
	// walks them without consulting the index. The FTL allocators hand
	// out low block ids first, so a new block usually goes at the tail.
	head, tail int32

	Reads    uint64 // per-plane counters for the Fig. 8b heatmap
	Programs uint64
}

// Block returns (lazily creating) block state.
func (p *Plane) Block(i int) *Block {
	if i < 0 || i >= p.bb.Cfg.BlocksPerPl {
		panic(fmt.Sprintf("flash: block %d out of range", i))
	}
	key := uint64(p.Index)*uint64(p.bb.Cfg.BlocksPerPl) + uint64(i)
	if r, ok := p.bb.index.Get(key); ok {
		return p.bb.record(r)
	}
	return p.link(p.bb.newBlock(key), i)
}

// link makes record r block id of the plane: it inserts the record into
// the plane's ascending list, right after the tail when id is the
// highest yet.
func (p *Plane) link(r int32, id int) *Block {
	bb := p.bb
	bl := bb.record(r)
	bl.id = id
	next := &p.head
	if p.tail != 0 && bb.record(p.tail-1).id < id {
		next = &bb.record(p.tail - 1).next
	}
	for *next != 0 && bb.record(*next-1).id < id {
		next = &bb.record(*next - 1).next
	}
	bl.next, *next = *next, r+1
	if bl.next == 0 {
		p.tail = r + 1
	}
	return bl
}

// Preload marks a block fully programmed with valid data — the state
// of data blocks at simulation start ("data initially resides in the
// SSD").
func (p *Plane) Preload(block int) {
	bl := p.Block(block)
	bl.WritePtr = p.bb.Cfg.PagesPerBlock
	bl.setAll()
}

// Read senses one page from the array (tR) and then delivers
// h.Handle(arg). Reading never fails: preloaded and programmed pages
// both sense; the simulator does not model data contents.
func (p *Plane) Read(block, page int, h sim.Handler, arg any) {
	if page < 0 || page >= p.bb.Cfg.PagesPerBlock {
		panic(ErrBadPage)
	}
	p.Reads++
	p.bb.ArrayReads.Inc()
	p.res.Acquire(p.bb.Cfg.ReadLat, h, arg)
}

// Program writes one page, delivering h.Handle(arg) when it completes.
// It enforces Z-NAND's in-order programming: page must equal the
// block's write pointer, and the block must not be full
// (erase-before-write).
func (p *Plane) Program(block, page int, h sim.Handler, arg any) error {
	if page < 0 || page >= p.bb.Cfg.PagesPerBlock {
		return ErrBadPage
	}
	bl := p.Block(block)
	if bl.WritePtr >= p.bb.Cfg.PagesPerBlock {
		return ErrNotErased
	}
	if page != bl.WritePtr {
		return ErrOutOfOrder
	}
	bl.WritePtr++
	bl.setValid(page)
	p.Programs++
	p.bb.ArrayPrograms.Inc()
	p.res.Acquire(p.bb.Cfg.ProgramLat, h, arg)
	return nil
}

// MarkInvalid drops a page's live-data mark (a newer version exists in
// a log block or was merged elsewhere).
func (p *Plane) MarkInvalid(block, page int) {
	bl := p.Block(block)
	if page >= 0 && page < int(bl.pages) {
		bl.clearValid(page)
	}
}

// Erase wipes a block (tERASE), counts a P/E cycle and then delivers
// h.Handle(arg). It fails once the endurance budget is exhausted.
func (p *Plane) Erase(block int, h sim.Handler, arg any) error {
	bl := p.Block(block)
	if bl.EraseCount >= p.bb.Cfg.PECycles {
		return ErrWornOut
	}
	bl.EraseCount++
	bl.WritePtr = 0
	bl.clearAll()
	p.bb.Erases.Inc()
	p.res.Acquire(p.bb.Cfg.EraseLat, h, arg)
	return nil
}

// ReadMany senses n pages of a block back to back (the sequential
// read burst of a GC merge) as one array occupancy of n*tR, then
// delivers h.Handle(arg).
func (p *Plane) ReadMany(n int, h sim.Handler, arg any) {
	if n <= 0 {
		p.res.Acquire(0, h, arg)
		return
	}
	p.Reads += uint64(n)
	p.bb.ArrayReads.Add(uint64(n))
	p.res.Acquire(sim.Tick(n)*p.bb.Cfg.ReadLat, h, arg)
}

// ProgramRange programs n in-order pages starting at the block's write
// pointer as one array occupancy of n*tPROG (the program burst of a GC
// merge), then delivers h.Handle(arg).
func (p *Plane) ProgramRange(block, n int, h sim.Handler, arg any) error {
	if n <= 0 {
		p.res.Acquire(0, h, arg)
		return nil
	}
	bl := p.Block(block)
	if bl.WritePtr+n > p.bb.Cfg.PagesPerBlock {
		return ErrNotErased
	}
	for i := 0; i < n; i++ {
		bl.setValid(bl.WritePtr + i)
	}
	bl.WritePtr += n
	p.Programs += uint64(n)
	p.bb.ArrayPrograms.Add(uint64(n))
	p.res.Acquire(sim.Tick(n)*p.bb.Cfg.ProgramLat, h, arg)
	return nil
}

// PreloadPage marks a single page as holding valid pre-existing data,
// advancing the write pointer past it (used by the page-mapped FTL,
// which hands out preloaded pages one at a time).
func (p *Plane) PreloadPage(block, page int) {
	bl := p.Block(block)
	if page < 0 || page >= p.bb.Cfg.PagesPerBlock {
		panic(ErrBadPage)
	}
	bl.setValid(page)
	if bl.WritePtr <= page {
		bl.WritePtr = page + 1
	}
}

// BusyTicks reports the cumulative array occupancy of the plane.
func (p *Plane) BusyTicks() sim.Tick { return p.res.BusyTicks() }

// NextFree reports when the plane's array is next idle.
func (p *Plane) NextFree() sim.Tick { return p.res.NextFree() }

// EachBlock visits every block that has materialized state in block-id
// order (blocks never touched are skipped; they hold no data and no
// wear). The ascending order makes callers that break ties by visit
// order — GC victim selection — deterministic.
func (p *Plane) EachBlock(f func(id int, bl *Block)) {
	for r := p.head; r != 0; {
		bl := p.bb.record(r - 1)
		r = bl.next
		f(bl.id, bl)
	}
}
