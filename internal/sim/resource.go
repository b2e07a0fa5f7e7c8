package sim

import "fmt"

// Resource models a unit that serves one request at a time with a
// per-request service latency — an SSD-engine core, a DMA engine, a
// page-table-walker thread. Requests queue FIFO; Acquire returns the
// tick at which service completes.
type Resource struct {
	eng  *Engine
	free Tick

	served uint64
	busy   Tick
}

// NewResource returns an idle resource.
func NewResource(eng *Engine) *Resource { return &Resource{eng: eng} }

// Acquire occupies the resource for dur ticks starting at the later of
// now and its previous completion, then delivers h.Handle(arg) (nothing,
// if h is nil). It returns the completion tick. A negative dur is a bug
// in the caller and panics.
func (r *Resource) Acquire(dur Tick, h Handler, arg any) Tick {
	if dur < 0 {
		panic(fmt.Sprintf("sim: Resource.Acquire of negative duration %d", dur))
	}
	start := r.eng.Now()
	if r.free > start {
		start = r.free
	}
	r.free = start + dur
	r.served++
	r.busy += dur
	r.eng.ScheduleAt(r.free, h, arg)
	return r.free
}

// NextFree reports when the resource becomes idle.
func (r *Resource) NextFree() Tick { return r.free }

// Served reports the number of Acquire calls.
func (r *Resource) Served() uint64 { return r.served }

// BusyTicks reports cumulative occupancy.
func (r *Resource) BusyTicks() Tick { return r.busy }

// Pool models k identical parallel servers (e.g. the 2–5 embedded
// cores of an SSD controller, or the 32 threads of the page-table
// walker). Each request is dispatched to the earliest-free server.
//
// Servers are interchangeable, so only the multiset of their free
// ticks is observable: free is a binary min-heap of them, and a
// dispatch replaces its root instead of scanning all k.
type Pool struct {
	eng  *Engine
	free []Tick

	served uint64
	busy   Tick
}

// NewPool creates a pool of k servers. k must be positive.
func NewPool(eng *Engine, k int) *Pool {
	if k <= 0 {
		panic("sim: pool size must be positive")
	}
	return &Pool{eng: eng, free: make([]Tick, k)}
}

// Size reports the number of servers.
func (p *Pool) Size() int { return len(p.free) }

// Acquire dispatches a request of duration dur to the earliest-free
// server, delivers h.Handle(arg) at completion (nothing, if h is nil),
// and returns the completion tick. A negative dur is a bug in the
// caller and panics.
func (p *Pool) Acquire(dur Tick, h Handler, arg any) Tick {
	if dur < 0 {
		panic(fmt.Sprintf("sim: Pool.Acquire of negative duration %d", dur))
	}
	start := p.eng.Now()
	if p.free[0] > start {
		start = p.free[0]
	}
	done := start + dur
	p.replaceMin(done)
	p.served++
	p.busy += dur
	p.eng.ScheduleAt(done, h, arg)
	return done
}

// replaceMin replaces the heap's root with t, which is no earlier, and
// sifts it down to its place.
func (p *Pool) replaceMin(t Tick) {
	f := p.free
	i := 0
	for {
		c := 2*i + 1
		if c >= len(f) {
			break
		}
		if c+1 < len(f) && f[c+1] < f[c] {
			c++
		}
		if f[c] >= t {
			break
		}
		f[i] = f[c]
		i = c
	}
	f[i] = t
}

// Served reports the number of Acquire calls.
func (p *Pool) Served() uint64 { return p.served }

// BusyTicks reports cumulative occupancy summed over servers.
func (p *Pool) BusyTicks() Tick { return p.busy }
