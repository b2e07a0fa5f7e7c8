package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"zng/internal/rng"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, Func(func() { got = append(got, 2) }), nil)
	e.Schedule(5, Func(func() { got = append(got, 1) }), nil)
	e.Schedule(10, Func(func() { got = append(got, 3) }), nil) // same tick: FIFO
	e.Schedule(20, Func(func() { got = append(got, 4) }), nil)
	e.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %d, want 20", e.Now())
	}
	if e.Fired() != 4 {
		t.Errorf("Fired() = %d, want 4", e.Fired())
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var ticks []Tick
	e.Schedule(1, Func(func() {
		ticks = append(ticks, e.Now())
		e.Schedule(9, Func(func() { ticks = append(ticks, e.Now()) }), nil)
	}), nil)
	e.Run()
	if len(ticks) != 2 || ticks[0] != 1 || ticks[1] != 10 {
		t.Fatalf("ticks = %v, want [1 10]", ticks)
	}
}

func TestEngineZeroDelay(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, Func(func() {
		now := e.Now()
		e.Schedule(0, Func(func() {
			if e.Now() != now {
				t.Errorf("zero-delay event fired at %d, want %d", e.Now(), now)
			}
			order = append(order, 2)
		}), nil)
		order = append(order, 1)
	}), nil)
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2]", order)
	}
}

// A negative delay or duration is a bug in its caller (config latencies
// are checked non-negative before anything is built), so every entry
// point that takes one panics, naming it, and queues nothing.
func TestNegativeDelayPanics(t *testing.T) {
	never := Func(func() { t.Error("event of a negative delay fired") })
	for name, tc := range map[string]struct {
		call func(e *Engine)
		want string
	}{
		"Engine.Schedule":  {func(e *Engine) { e.Schedule(-3, never, nil) }, "tick 7, before now (10)"},
		"Resource.Acquire": {func(e *Engine) { NewResource(e).Acquire(-3, never, nil) }, "negative duration -3"},
		"Pool.Acquire":     {func(e *Engine) { NewPool(e, 2).Acquire(-3, never, nil) }, "negative duration -3"},
	} {
		e := NewEngine()
		e.RunUntil(10)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("%s(-3) panicked with %q, want a panic naming %q", name, msg, tc.want)
				}
			}()
			tc.call(e)
		}()
		if e.Pending() != 0 {
			t.Errorf("%s(-3) left %d events pending, want 0", name, e.Pending())
		}
		e.Run()
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for _, d := range []Tick{1, 5, 10, 15} {
		e.Schedule(d, Func(func() { fired++ }), nil)
	}
	e.RunUntil(10)
	if fired != 3 {
		t.Errorf("fired = %d after RunUntil(10), want 3", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %d, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.RunFor(5)
	if fired != 4 {
		t.Errorf("fired = %d after RunFor(5), want 4", fired)
	}
}

// An event scheduled before now is a bug in its caller: ScheduleAt
// panics instead of firing it late, and the queue is left as it was.
func TestEngineScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt(now-1) did not panic")
			}
		}()
		e.ScheduleAt(e.Now()-1, Func(func() { t.Error("past event fired") }), nil)
	}()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after the rejected event, want 0", e.Pending())
	}
	fired := false
	e.ScheduleAt(e.Now(), Func(func() { fired = true }), nil)
	e.Run()
	if !fired || e.Now() != 10 {
		t.Errorf("event at now: fired %v at %d, want true at 10", fired, e.Now())
	}
}

// Property: events always fire in nondecreasing time order, regardless
// of schedule order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Tick(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Tick(d), Func(func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			}), nil)
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: same-tick events fire FIFO even under random interleaving.
// This pins the ordering contract of the 4-ary heap: within one tick,
// events fire in exactly the order they were scheduled.
func TestEngineSameTickFIFO(t *testing.T) {
	r := rng.New(1)
	e := NewEngine()
	const n = 2000
	type fired struct {
		tick Tick
		idx  int
	}
	var got []fired
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(Tick(r.Intn(5)), Func(func() { got = append(got, fired{e.Now(), i}) }), nil)
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].tick < got[i-1].tick {
			t.Fatalf("time ran backwards: tick %d after %d", got[i].tick, got[i-1].tick)
		}
		if got[i].tick == got[i-1].tick && got[i].idx <= got[i-1].idx {
			t.Fatalf("same-tick FIFO violated at tick %d: index %d fired after %d",
				got[i].tick, got[i].idx, got[i-1].idx)
		}
	}
}

// The steady state — pushes into a slice that already has capacity,
// pops that shrink it back — must not allocate: event dispatch is the
// hottest loop in the whole simulator.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	// Warm the heap's backing slice to its high-water mark.
	for i := 0; i < 64; i++ {
		e.Schedule(Tick(i%8), Func(nop), nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(Tick(i%8), Func(nop), nil)
		}
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule+run allocated %.1f allocs/run, want 0", allocs)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Tick(i%64), Func(nop), nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// counter is a long-lived component receiving typed events.
type counter struct {
	got []*int
}

func (c *counter) Handle(arg any) { c.got = append(c.got, arg.(*int)) }

// Typed events deliver their arg to their handler in (tick, schedule
// order), and scheduling a pointer handler with a pointer arg — the
// simulator's hot path — allocates nothing.
func TestEngineTypedEvents(t *testing.T) {
	e := NewEngine()
	c := &counter{got: make([]*int, 0, 64)}
	args := make([]int, 3)
	e.Schedule(4, c, &args[0])
	e.Schedule(2, c, &args[1])
	e.Schedule(4, c, &args[2])
	e.Run()
	want := []*int{&args[1], &args[0], &args[2]}
	for i := range want {
		if c.got[i] != want[i] {
			t.Fatalf("delivery %d carried the wrong arg", i)
		}
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Tick(i%8), c, &args[0])
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		c.got = c.got[:0]
		for i := 0; i < 64; i++ {
			e.Schedule(Tick(i%8), c, &args[i%3])
		}
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("typed schedule+run allocated %.1f allocs/run, want 0", allocs)
	}
}

func TestFreeListRecycles(t *testing.T) {
	var l FreeList[counter]
	a := l.Get()
	a.got = append(a.got, nil)
	l.Put(a)
	if b := l.Get(); b != a || b.got != nil {
		t.Fatalf("Get after Put = %p (%v), want the zeroed record %p", b, b.got, a)
	}
	if l.Get() == a {
		t.Fatal("a record was handed out twice")
	}
}

// Fresh records are cut from chunks of 8, 8, 16, 32 and then 64, so
// handing out 192 records costs six allocations, and every record is a
// distinct, zeroed object.
func TestFreeListCarvesChunks(t *testing.T) {
	var recs [8 + 8 + 16 + 32 + 64 + 64]*counter
	var l FreeList[counter]
	allocs := testing.AllocsPerRun(1, func() {
		l = FreeList[counter]{}
		for i := range recs {
			recs[i] = l.Get()
		}
	})
	if allocs != 6 {
		t.Errorf("%d fresh records cost %.0f allocations, want 6", len(recs), allocs)
	}
	seen := make(map[*counter]bool, len(recs))
	for i, x := range recs {
		if seen[x] || x.got != nil {
			t.Fatalf("record %d was handed out twice or not zeroed", i)
		}
		seen[x] = true
		x.got = make([]*int, 0, 1)
	}
}
