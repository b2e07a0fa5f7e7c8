package sim

// Port models a bandwidth-limited, serialized link: a memory channel,
// an ONFI flash channel, a PCIe lane bundle, or one output of a mesh
// router. Transfers occupy the port back to back; a transfer of n
// bytes holds the port for ceil(n/width) ticks and is delivered
// latency ticks after its serialization completes.
//
// This "next free time" model yields the correct saturation bandwidth
// and first-order queueing delay without flit-level detail, which is
// the fidelity the paper's bandwidth figures require.
type Port struct {
	eng *Engine
	// Width is the number of bytes the port moves per tick.
	width float64
	// Latency is the propagation delay added after serialization.
	latency Tick
	// free is the first tick at which the port can accept a new transfer.
	free Tick

	// Accounting.
	bytes     uint64
	transfers uint64
	busy      Tick
}

// NewPort creates a port moving width bytes per tick with the given
// propagation latency. Width must be positive.
func NewPort(eng *Engine, width float64, latency Tick) *Port {
	if width <= 0 {
		panic("sim: port width must be positive")
	}
	return &Port{eng: eng, width: width, latency: latency}
}

// Send queues a transfer of n bytes and delivers h.Handle(arg) at
// delivery time (nothing, if h is nil). It returns the delivery tick.
func (p *Port) Send(n int, h Handler, arg any) Tick {
	start := p.eng.Now()
	if p.free > start {
		start = p.free
	}
	dur := p.serialization(n)
	p.free = start + dur
	p.bytes += uint64(n)
	p.transfers++
	p.busy += dur
	deliver := p.free + p.latency
	p.eng.ScheduleAt(deliver, h, arg)
	return deliver
}

// NextFree reports the earliest tick a new transfer could begin.
func (p *Port) NextFree() Tick { return p.free }

// Bytes reports the total bytes transferred.
func (p *Port) Bytes() uint64 { return p.bytes }

// Transfers reports the number of Send calls.
func (p *Port) Transfers() uint64 { return p.transfers }

// BusyTicks reports the cumulative serialization occupancy.
func (p *Port) BusyTicks() Tick { return p.busy }

func (p *Port) serialization(n int) Tick {
	if n <= 0 {
		return 0
	}
	d := Tick(float64(n) / p.width)
	if float64(d)*p.width < float64(n) {
		d++
	}
	if d < 1 {
		d = 1
	}
	return d
}
