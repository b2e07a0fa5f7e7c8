package sim

import (
	"testing"

	"zng/internal/rng"
)

// refEngine is the single-heap, closure-event engine the wheel engine
// replaced: every event on one (when, seq) min-heap.
type refEngine struct {
	now    Tick
	seq    uint64
	events []refEvent
}

type refEvent struct {
	when Tick
	seq  uint64
	fn   func()
}

func (a refEvent) before(b refEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Schedule queues fn d ticks from now; d is never negative.
func (e *refEngine) Schedule(d Tick, fn func()) {
	e.seq++
	e.events = append(e.events, refEvent{when: e.now + d, seq: e.seq, fn: fn})
	for i := len(e.events) - 1; i > 0; {
		p := (i - 1) / 2
		if !e.events[i].before(e.events[p]) {
			break
		}
		e.events[i], e.events[p] = e.events[p], e.events[i]
		i = p
	}
}

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	root := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && e.events[l].before(e.events[m]) {
			m = l
		}
		if r < n && e.events[r].before(e.events[m]) {
			m = r
		}
		if m == i {
			break
		}
		e.events[i], e.events[m] = e.events[m], e.events[i]
		i = m
	}
	e.now = root.when
	root.fn()
	return true
}

func (e *refEngine) RunUntil(t Tick) {
	for len(e.events) > 0 && e.events[0].when <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

type firing struct {
	id   int
	tick Tick
}

// workload drives one engine through a seeded random schedule: each
// fired event may schedule more at delays that are zero, stay on the
// wheel or cross its horizon, and the driver interleaves RunUntil
// windows with free running.
func workload(seed uint64, schedule func(d Tick, fn func()), now func() Tick, step func() bool, runUntil func(Tick)) []firing {
	r := rng.New(seed)
	var out []firing
	next := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		id := next
		next++
		var d Tick
		switch r.Intn(5) {
		case 0:
			d = 0
		case 1:
			d = Tick(r.Intn(8))
		case 2:
			d = Tick(r.Intn(wheelTicks))
		case 3:
			d = Tick(wheelTicks - 2 + r.Intn(4)) // straddle the horizon
		default:
			d = Tick(r.Intn(6 * wheelTicks))
		}
		schedule(d, func() {
			out = append(out, firing{id, now()})
			if depth < 6 {
				for k := r.Intn(3); k > 0; k-- {
					spawn(depth + 1)
				}
			}
		})
	}
	for i := 0; i < 400; i++ {
		spawn(0)
	}
	for round := 0; round < 50; round++ {
		runUntil(now() + Tick(r.Intn(3*wheelTicks)))
		for i := r.Intn(20); i > 0; i-- {
			spawn(0)
		}
	}
	for step() {
	}
	return out
}

// TestEngineMatchesReferenceHeap drives the wheel engine and the
// single-heap reference through the same random schedules: every event
// must fire at the same tick and in the same order.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		e := NewEngine()
		got := workload(seed,
			func(d Tick, fn func()) { e.Schedule(d, Func(fn), nil) },
			e.Now, e.Step, e.RunUntil)
		ref := &refEngine{}
		want := workload(seed,
			ref.Schedule, func() Tick { return ref.now }, ref.Step, ref.RunUntil)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d = event %d at %d, reference event %d at %d",
					seed, i, got[i].id, got[i].tick, want[i].id, want[i].tick)
			}
		}
		if e.Pending() != 0 || e.Fired() != uint64(len(got)) {
			t.Fatalf("seed %d: pending %d, fired %d of %d", seed, e.Pending(), e.Fired(), len(got))
		}
	}
}
