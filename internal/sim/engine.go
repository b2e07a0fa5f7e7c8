// Package sim provides the discrete-event simulation kernel used by
// every other component of the ZnG model: an event queue ordered by
// tick, bandwidth-limited ports, and occupancy-limited resources.
//
// One sim.Tick is one GPU core cycle (1.2 GHz in the paper's Table I
// configuration, i.e. 0.8333 ns); device latencies expressed in
// nanoseconds are converted to ticks by internal/config.
//
// The engine is deliberately single-threaded: a simulation is a
// deterministic function of its inputs. Events scheduled for the same
// tick fire in the order they were scheduled, so runs are exactly
// reproducible.
package sim

import (
	"fmt"
	"math/bits"
)

// Tick is simulated time measured in GPU core cycles.
type Tick int64

// Handler receives typed events. Handlers are long-lived model
// components (a warp, a cache, a mesh message, a flash controller) and
// arg names what the event is about, typically the in-flight request
// the component is working on. A pointer, or a struct holding just one
// pointer, is stored in an interface as is, so scheduling such a
// handler with a pointer (or nil) arg allocates nothing; a closure per
// event, by contrast, costs a heap object every time.
type Handler interface {
	Handle(arg any)
}

// Func adapts a closure to Handler for cold paths (tests, FTL garbage
// collection, the analytic latency models) where an allocation per
// event does not matter. The closure ignores arg.
type Func func()

// Handle implements Handler.
func (f Func) Handle(any) { f() }

type event struct {
	when Tick
	seq  uint64
	h    Handler
	arg  any
}

// before orders events by (when, seq): time first, then schedule
// order, which is what makes same-tick events fire FIFO.
func (a event) before(b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// wheelTicks is the span of the engine's timing wheel: a power of two
// above the flash read latency (3 us is 3,600 ticks), so cache, MMU,
// interconnect and array-read events all land on it and only programs,
// erases and deep queues reach the far heap.
const wheelTicks = 1 << 13

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// A simulation fires hundreds of millions of events, so the queue is
// the hottest structure in the whole model. Nearly every event lands
// less than a flash read latency ahead of now, so the queue is split:
//
//   - a timing wheel holds events due in [now, now+wheelTicks), one
//     FIFO list per tick, found through an occupancy bitmap. Push and
//     pop are O(1), and a list is in schedule order by construction,
//     which is exactly the same-tick FIFO contract.
//   - a 4-ary min-heap ordered by (when, seq) holds the rest. Each time
//     the clock advances, the events the wheel has come to cover move
//     over in (when, seq) order. They were scheduled before anything
//     the wheel could have accepted for their tick, so they go to the
//     front of that tick's list and FIFO order holds across both.
//
// Events are typed (handler + arg) rather than closures, and wheel
// nodes are recycled through a free chain, so the steady state of
// Schedule and Step allocates nothing.
type Engine struct {
	now   Tick
	seq   uint64
	fired uint64

	// The wheel: nodes[i-1] is node i; 0 ends a list. heads and tails
	// are indexed by tick modulo wheelTicks, occ has a bit per tick
	// with a non-empty list, and free chains the recycled nodes.
	nodes        []node
	heads, tails []int32
	occ          []uint64
	free         int32
	near         int

	far []event // 4-ary min-heap ordered by event.before
}

// node is a wheel entry; its tick is the slot whose list holds it.
type node struct {
	h    Handler
	arg  any
	next int32
}

// NewEngine returns an empty engine at tick zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return e.near + len(e.far) }

// Schedule delivers h.Handle(arg) delay ticks from now. A zero delay
// fires later in the current tick, preserving order; a negative one
// lands before now and panics, as ScheduleAt does.
func (e *Engine) Schedule(delay Tick, h Handler, arg any) {
	e.ScheduleAt(e.now+delay, h, arg)
}

// ScheduleAt delivers h.Handle(arg) at absolute tick t. A nil h is
// ignored (callers chain optional completion handlers). A tick before
// now is a bug in the caller, which would otherwise go unseen as a
// silently shortened latency, so it panics.
func (e *Engine) ScheduleAt(t Tick, h Handler, arg any) {
	if h == nil {
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at tick %d, before now (%d)", t, e.now))
	}
	e.seq++
	if t-e.now < wheelTicks {
		e.pushNear(t, h, arg)
		return
	}
	e.far = append(e.far, event{when: t, seq: e.seq, h: h, arg: arg})
	e.siftUp(len(e.far) - 1)
}

// pushNear appends an event to tick t's list on the wheel.
func (e *Engine) pushNear(t Tick, h Handler, arg any) {
	if e.heads == nil {
		e.heads = make([]int32, wheelTicks)
		e.tails = make([]int32, wheelTicks)
		e.occ = make([]uint64, wheelTicks/64)
	}
	n := e.free
	if n != 0 {
		e.free = e.nodes[n-1].next
	} else {
		e.nodes = append(e.nodes, node{})
		n = int32(len(e.nodes))
	}
	e.nodes[n-1] = node{h: h, arg: arg}
	i := t & (wheelTicks - 1)
	if tail := e.tails[i]; tail != 0 {
		e.nodes[tail-1].next = n
	} else {
		e.heads[i] = n
		e.occ[i/64] |= 1 << (i % 64)
	}
	e.tails[i] = n
	e.near++
}

// nextNear reports the earliest tick holding a wheel event. The wheel
// must be non-empty; all of its events lie in [now, now+wheelTicks).
func (e *Engine) nextNear() Tick {
	i := int(e.now & (wheelTicks - 1))
	w := i / 64
	if set := e.occ[w] >> (i % 64); set != 0 {
		return e.now + Tick(bits.TrailingZeros64(set))
	}
	dist := 64 - i%64
	for k := 1; ; k++ {
		if set := e.occ[(w+k)%len(e.occ)]; set != 0 {
			return e.now + Tick(dist+bits.TrailingZeros64(set))
		}
		dist += 64
	}
}

// advance moves the clock to t and pulls the far events the wheel now
// covers onto it.
func (e *Engine) advance(t Tick) {
	e.now = t
	for len(e.far) > 0 && e.far[0].when-t < wheelTicks {
		ev := e.popFar()
		e.pushNear(ev.when, ev.h, ev.arg)
	}
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	ev := e.far[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(e.far[parent]) {
			break
		}
		e.far[i] = e.far[parent]
		i = parent
	}
	e.far[i] = ev
}

// popFar removes and returns the far heap's minimum event. The backing
// slice keeps its capacity, and the vacated slot is cleared so the
// handler and arg do not outlive their turn in the queue.
func (e *Engine) popFar() event {
	root := e.far[0]
	n := len(e.far) - 1
	last := e.far[n]
	e.far[n] = event{} // release handler and arg for GC
	e.far = e.far[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root
}

// siftDown places ev (the displaced last element) starting from the
// root, walking toward the smaller of up to four children.
func (e *Engine) siftDown(ev event) {
	i, n := 0, len(e.far)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.far[c].before(e.far[min]) {
				min = c
			}
		}
		if !e.far[min].before(ev) {
			break
		}
		e.far[i] = e.far[min]
		i = min
	}
	e.far[i] = ev
}

// Step fires the next event, advancing time to it. It reports whether
// an event was available.
func (e *Engine) Step() bool {
	if e.near == 0 {
		if len(e.far) == 0 {
			return false
		}
		e.advance(e.far[0].when)
	}
	if t := e.nextNear(); t != e.now {
		e.advance(t)
	}
	i := e.now & (wheelTicks - 1)
	n := e.heads[i]
	nd := e.nodes[n-1]
	if e.heads[i] = nd.next; nd.next == 0 {
		e.tails[i] = 0
		e.occ[i/64] &^= 1 << (i % 64)
	}
	e.nodes[n-1] = node{next: e.free} // release handler and arg for GC
	e.free = n
	e.near--
	e.fired++
	nd.h.Handle(nd.arg)
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Tick) {
	for e.Pending() > 0 && e.peek() <= t {
		e.Step()
	}
	if e.now < t {
		e.advance(t)
	}
}

// peek reports the next event's tick; the queue must be non-empty.
func (e *Engine) peek() Tick {
	if e.near > 0 {
		return e.nextNear()
	}
	return e.far[0].when
}

// RunFor advances the clock by d ticks (see RunUntil).
func (e *Engine) RunFor(d Tick) { e.RunUntil(e.now + d) }
