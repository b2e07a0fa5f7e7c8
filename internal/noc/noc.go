// Package noc models the two interconnects of the ZnG architecture
// (Fig. 6a): the GPU-internal network connecting SMs, L2 banks, the
// MMU and the flash controllers; and the flash network connecting
// flash controllers to Z-NAND packages.
//
// HybridGPU attaches its flash packages over legacy shared-bus
// channels, each one sim.Port (internal/ssd); ZnG replaces them with a
// mesh whose links are 8 B wide — 8x the legacy channel width —
// precisely because the bus "constrains itself from scaling up with a
// higher frequency" (Section I).
//
// The mesh uses dimension-order (XY) routing with store-and-forward
// links; each directional link is a bandwidth-limited sim.Port, so
// contention and saturation emerge naturally.
package noc

import (
	"fmt"

	"zng/internal/sim"
	"zng/internal/stats"
)

// Xbar is the GPU-internal crossbar: contention is modeled at each
// destination's output port, which is how a high-radix switch behaves
// once the fabric itself is overprovisioned.
type Xbar struct {
	outs []*sim.Port
}

// NewXbar creates a crossbar with n endpoints, each output moving
// width bytes/tick with the given latency.
func NewXbar(eng *sim.Engine, n int, width float64, latency sim.Tick) *Xbar {
	x := &Xbar{}
	for i := 0; i < n; i++ {
		x.outs = append(x.outs, sim.NewPort(eng, width, latency))
	}
	return x
}

// Send moves n bytes to endpoint dst and delivers h.Handle(arg) on
// arrival.
func (x *Xbar) Send(dst, n int, h sim.Handler, arg any) { x.outs[dst].Send(n, h, arg) }

// Mesh is a dim x dim store-and-forward mesh. Node i sits at
// (i%dim, i/dim). Each directional link is a separate port.
type Mesh struct {
	dim int
	// east[y][x]: link from (x,y) to (x+1,y); west, north, south similar.
	east, west   [][]*sim.Port
	north, south [][]*sim.Port // north: toward y-1, south: toward y+1
	local        []*sim.Port   // ejection into the node

	msgs sim.FreeList[message]

	Bytes    stats.Counter
	Messages stats.Counter
}

// message is one multi-hop transfer in flight: its position, its
// destination, and the event to deliver on ejection. It is its own
// event handler, arriving at each router in turn.
type message struct {
	m      *Mesh
	x, y   int
	dx, dy int
	n      int
	h      sim.Handler
	arg    any
}

// NewMesh builds a dim x dim mesh with per-link width (bytes/tick) and
// per-hop latency.
func NewMesh(eng *sim.Engine, dim int, width float64, hopLat sim.Tick) *Mesh {
	m := &Mesh{dim: dim}
	mk := func() *sim.Port { return sim.NewPort(eng, width, hopLat) }
	for y := 0; y < dim; y++ {
		var e, w, n, s []*sim.Port
		for x := 0; x < dim; x++ {
			e, w, n, s = append(e, mk()), append(w, mk()), append(n, mk()), append(s, mk())
		}
		m.east = append(m.east, e)
		m.west = append(m.west, w)
		m.north = append(m.north, n)
		m.south = append(m.south, s)
	}
	for i := 0; i < dim*dim; i++ {
		m.local = append(m.local, mk())
	}
	return m
}

// Nodes reports the node count (dim*dim).
func (m *Mesh) Nodes() int { return m.dim * m.dim }

// Hops reports the XY route length between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := src%m.dim, src/m.dim
	dx, dy := dst%m.dim, dst/m.dim
	return abs(sx-dx) + abs(sy-dy)
}

// Send routes n bytes from src to dst (XY order) and delivers
// h.Handle(arg) on arrival. src == dst still pays the local ejection
// port.
func (m *Mesh) Send(src, dst, n int, h sim.Handler, arg any) {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: bad mesh endpoints %d -> %d", src, dst))
	}
	m.Bytes.Add(uint64(n))
	m.Messages.Inc()
	if src == dst {
		m.local[dst].Send(n, h, arg)
		return
	}
	msg := m.msgs.Get()
	*msg = message{m: m, x: src % m.dim, y: src / m.dim, dx: dst % m.dim, dy: dst / m.dim, n: n, h: h, arg: arg}
	msg.forward()
}

// forward moves the message one hop: X first, then Y, then the local
// ejection port, where it is recycled.
func (msg *message) forward() {
	m, x, y := msg.m, msg.x, msg.y
	switch {
	case x < msg.dx:
		msg.x++
		m.east[y][x].Send(msg.n, msg, nil)
	case x > msg.dx:
		msg.x--
		m.west[y][x].Send(msg.n, msg, nil)
	case y < msg.dy:
		msg.y++
		m.south[y][x].Send(msg.n, msg, nil)
	case y > msg.dy:
		msg.y--
		m.north[y][x].Send(msg.n, msg, nil)
	default:
		n, h, arg := msg.n, msg.h, msg.arg
		m.msgs.Put(msg)
		m.local[y*m.dim+x].Send(n, h, arg)
	}
}

// Handle implements sim.Handler: the message reached its next router.
func (msg *message) Handle(any) { msg.forward() }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
