// Package mem defines the memory request type that flows through the
// simulated hierarchy (SM coalescer -> TLB/MMU -> L1 -> L2 -> platform
// backend) and the interface every level implements.
package mem

import "zng/internal/sim"

// Request is one coalesced memory access. GPU requests are 128 B
// sectors (Section III-A); prefetches and page-fault fills may be
// larger.
//
// Requests are recycled: the level that issues one (an SM, or a cache
// issuing a fill or write-back) takes it from a sim.FreeList and puts
// it back when Done fires. Levels therefore must not touch a request
// after completing it.
type Request struct {
	// Addr is the request address. Before translation it is a virtual
	// address; platforms that translate in the MMU rewrite it to a
	// device-physical address before the caches see it.
	Addr uint64
	// Size in bytes.
	Size int
	// Write distinguishes stores from loads.
	Write bool
	// PC is the program counter of the generating LD/ST instruction;
	// the ZnG prefetch predictor is indexed by it.
	PC uint64
	// Warp and SM identify the issuing context.
	Warp int
	SM   int
	// Prefetch marks requests injected by the read-prefetch unit.
	Prefetch bool
	// Done receives Handle(r) exactly once, when the request is
	// complete.
	Done sim.Handler
	// Cause is the request a cache fill was issued on behalf of (a
	// write-allocate fill names the store it allocates for); nil
	// otherwise.
	Cause *Request

	next *Request // Queue link
}

// Complete notifies Done, if set. Levels must call it exactly once per
// request they own.
func (r *Request) Complete() {
	if r.Done != nil {
		r.Done.Handle(r)
	}
}

// Handle implements sim.Handler by completing r, so a level schedules
// a completion latency with eng.Schedule(lat, r, nil).
func (r *Request) Handle(any) { r.Complete() }

// Queue is an intrusive FIFO of requests (MSHR waiters, misses waiting
// for a free MSHR, reads waiting on one flash sense). It links requests
// through a field of their own, so queueing allocates nothing; a
// request may sit in at most one queue at a time. The zero value is an
// empty queue.
type Queue struct {
	head, tail *Request
	n          int
}

// Push appends r.
func (q *Queue) Push(r *Request) {
	r.next = nil
	if q.tail == nil {
		q.head = r
	} else {
		q.tail.next = r
	}
	q.tail = r
	q.n++
}

// Pop removes and returns the oldest request, or nil when empty.
func (q *Queue) Pop() *Request {
	r := q.head
	if r == nil {
		return nil
	}
	q.head = r.next
	if q.head == nil {
		q.tail = nil
	}
	r.next = nil
	q.n--
	return r
}

// Len reports the queued request count.
func (q *Queue) Len() int { return q.n }

// Memory is anything that can service requests: a cache level, an
// interconnect adapter, a DRAM controller, the flash backbone.
type Memory interface {
	// Access starts servicing r. Completion is signalled via r.Done,
	// possibly synchronously for zero-latency hits.
	Access(r *Request)
}

// Func adapts a function to the Memory interface.
type Func func(r *Request)

// Access implements Memory.
func (f Func) Access(r *Request) { f(r) }

// PageBytes4K is the 4 KB page size shared by the MMU and Z-NAND.
const PageBytes4K = 4096

// LineAddr returns the address of the line of size lineBytes
// containing addr. lineBytes must be a power of two.
func LineAddr(addr uint64, lineBytes int) uint64 {
	return addr &^ (uint64(lineBytes) - 1)
}

// PageAddr returns the 4 KB-aligned page address containing addr.
func PageAddr(addr uint64, pageBytes int) uint64 {
	return addr &^ (uint64(pageBytes) - 1)
}
