package sim

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
// if h is nil). It returns the completion tick.
func (r *Resource) Acquire(dur Tick, h Handler, arg any) Tick {
	start := r.eng.Now()
	if r.free > start {
		start = r.free
	}
	if dur < 0 {
		dur = 0
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
type Pool struct {
	eng     *Engine
	servers []Tick

	served uint64
	busy   Tick
}

// NewPool creates a pool of k servers. k must be positive.
func NewPool(eng *Engine, k int) *Pool {
	if k <= 0 {
		panic("sim: pool size must be positive")
	}
	return &Pool{eng: eng, servers: make([]Tick, k)}
}

// Size reports the number of servers.
func (p *Pool) Size() int { return len(p.servers) }

// Acquire dispatches a request of duration dur to the earliest-free
// server, delivers h.Handle(arg) at completion (nothing, if h is nil),
// and returns the completion tick.
func (p *Pool) Acquire(dur Tick, h Handler, arg any) Tick {
	best := 0
	for i, f := range p.servers {
		if f < p.servers[best] {
			best = i
		}
	}
	start := p.eng.Now()
	if p.servers[best] > start {
		start = p.servers[best]
	}
	if dur < 0 {
		dur = 0
	}
	p.servers[best] = start + dur
	p.served++
	p.busy += dur
	p.eng.ScheduleAt(p.servers[best], h, arg)
	return p.servers[best]
}

// Served reports the number of Acquire calls.
func (p *Pool) Served() uint64 { return p.served }

// BusyTicks reports cumulative occupancy summed over servers.
func (p *Pool) BusyTicks() Tick { return p.busy }
