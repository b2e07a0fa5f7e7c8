// Package dram models the conventional memory backends the ZnG paper
// compares against: GDDR5 (six GPU memory controllers), desktop DDR4,
// mobile LPDDR4, and Intel Optane DC PMM with the Table I timing
// (tRCD 190 ns, tCL 8.9 ns, tRP 763 ns) and its 256 B internal access
// granularity — the reason a 128 B GPU sector wastes half of Optane's
// device bandwidth.
package dram

import (
	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
	"zng/internal/stats"
)

// Device is a multi-controller memory backend. It implements
// mem.Memory.
type Device struct {
	cfg   config.DRAM
	eng   *sim.Engine
	ports []*sim.Port

	Reads, Writes stats.Counter
}

// New builds a backend from a config.DRAM description.
func New(eng *sim.Engine, cfg config.DRAM) *Device {
	d := &Device{cfg: cfg, eng: eng}
	per := cfg.TotalGBps / float64(cfg.Controllers)
	for i := 0; i < cfg.Controllers; i++ {
		d.ports = append(d.ports, sim.NewPort(eng, config.GBpsToBytesPerTick(per), 0))
	}
	return d
}

// Access services one request: channel selection by address, device
// access-granularity rounding, bandwidth serialization, then the
// device read or write latency.
func (d *Device) Access(r *mem.Request) {
	gran := d.cfg.AccessGran
	// Interleave at access granularity across controllers.
	ctrl := int(r.Addr/uint64(gran)) % len(d.ports)

	// A request smaller than the device granularity still moves a full
	// device burst; larger requests round up to whole bursts.
	bursts := (r.Size + gran - 1) / gran
	if bursts < 1 {
		bursts = 1
	}
	moved := bursts * gran

	if r.Write {
		d.Writes.Inc()
	} else {
		d.Reads.Inc()
	}
	d.ports[ctrl].Send(moved, transferred{d}, r)
}

// transferred charges the device read or write latency once a
// request's bursts have crossed its channel.
type transferred struct{ d *Device }

func (h transferred) Handle(arg any) {
	r := arg.(*mem.Request)
	lat := h.d.cfg.ReadLat
	if r.Write {
		lat = h.d.cfg.WriteLat
	}
	h.d.eng.Schedule(lat, r, nil)
}

// DeliveredGBps reports achieved bandwidth over the elapsed ticks.
func (d *Device) DeliveredGBps(elapsed sim.Tick) float64 {
	if elapsed <= 0 {
		return 0
	}
	var n uint64
	for _, p := range d.ports {
		n += p.Bytes()
	}
	return config.BytesPerTickToGBps(float64(n) / float64(elapsed))
}
