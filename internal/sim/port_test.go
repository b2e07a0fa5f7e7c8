package sim

import (
	"testing"
	"testing/quick"

	"zng/internal/rng"
)

func TestPortSerialization(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 4, 10) // 4 B/tick, 10-tick latency
	var first, second Tick
	p.Send(16, Func(func() { first = e.Now() }), nil)  // 4 ticks + 10
	p.Send(16, Func(func() { second = e.Now() }), nil) // queued behind: 8 ticks + 10
	e.Run()
	if first != 14 {
		t.Errorf("first delivery at %d, want 14", first)
	}
	if second != 18 {
		t.Errorf("second delivery at %d, want 18", second)
	}
	if p.Bytes() != 32 || p.Transfers() != 2 {
		t.Errorf("accounting: bytes=%d transfers=%d, want 32, 2", p.Bytes(), p.Transfers())
	}
}

func TestPortSaturationBandwidth(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 8, 5) // 8 B/tick
	const n, size = 1000, 128
	done := 0
	var last Tick
	for i := 0; i < n; i++ {
		p.Send(size, Func(func() { done++; last = e.Now() }), nil)
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	// n transfers of 16 ticks each, plus 5 latency on the last.
	want := Tick(n*size/8 + 5)
	if last != want {
		t.Errorf("last delivery at %d, want %d", last, want)
	}
	// Achieved bandwidth within 1% of width.
	bw := float64(p.Bytes()) / float64(last-5)
	if bw < 7.9 || bw > 8.1 {
		t.Errorf("achieved bandwidth %.2f B/tick, want ~8", bw)
	}
}

func TestPortIdleGap(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 1, 0)
	var d1, d2 Tick
	p.Send(3, Func(func() { d1 = e.Now() }), nil)
	e.Schedule(100, Func(func() { p.Send(3, Func(func() { d2 = e.Now() }), nil) }), nil)
	e.Run()
	if d1 != 3 {
		t.Errorf("d1 = %d, want 3", d1)
	}
	if d2 != 103 {
		t.Errorf("d2 = %d, want 103 (no carry-over of idle time)", d2)
	}
}

func TestPortMinimumOneTick(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 1024, 0)
	var d Tick
	p.Send(1, Func(func() { d = e.Now() }), nil)
	e.Run()
	if d != 1 {
		t.Errorf("tiny transfer delivered at %d, want 1 (min one tick)", d)
	}
	p2 := NewPort(e, 16, 7)
	var dz Tick
	p2.Send(0, Func(func() { dz = e.Now() }), nil)
	e.Run()
	if dz != e.Now() && dz != 1+7 {
		// zero-byte send takes zero serialization + latency
		t.Logf("zero send delivered at %d", dz)
	}
}

// Property: total delivery time for k back-to-back sends of n bytes is
// exactly k*ceil(n/width) + latency.
func TestPortBackToBackProperty(t *testing.T) {
	f := func(k8 uint8, n16 uint16, w4 uint8) bool {
		k := int(k8%8) + 1
		n := int(n16%512) + 1
		w := float64(w4%16 + 1)
		e := NewEngine()
		p := NewPort(e, w, 3)
		var last Tick
		for i := 0; i < k; i++ {
			p.Send(n, Func(func() { last = e.Now() }), nil)
		}
		e.Run()
		per := Tick(float64(n) / w)
		if float64(per)*w < float64(n) {
			per++
		}
		if per < 1 {
			per = 1
		}
		return last == Tick(k)*per+3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResourceQueueing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var a, b Tick
	r.Acquire(10, Func(func() { a = e.Now() }), nil)
	r.Acquire(10, Func(func() { b = e.Now() }), nil)
	e.Run()
	if a != 10 || b != 20 {
		t.Errorf("completions at %d, %d; want 10, 20", a, b)
	}
	if r.Served() != 2 || r.BusyTicks() != 20 {
		t.Errorf("served=%d busy=%d, want 2, 20", r.Served(), r.BusyTicks())
	}
}

func TestPoolParallelism(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, 4)
	var finish []Tick
	for i := 0; i < 8; i++ {
		p.Acquire(10, Func(func() { finish = append(finish, e.Now()) }), nil)
	}
	e.Run()
	// 4 at t=10, 4 at t=20.
	at10, at20 := 0, 0
	for _, f := range finish {
		switch f {
		case 10:
			at10++
		case 20:
			at20++
		}
	}
	if at10 != 4 || at20 != 4 {
		t.Errorf("finishes = %v, want four at 10 and four at 20", finish)
	}
}

func TestPoolVsResourceThroughput(t *testing.T) {
	// A pool of k servers must finish k times faster than one resource.
	mk := func(k int) Tick {
		e := NewEngine()
		p := NewPool(e, k)
		var last Tick
		for i := 0; i < 64; i++ {
			p.Acquire(100, Func(func() { last = e.Now() }), nil)
		}
		e.Run()
		return last
	}
	if t1, t4 := mk(1), mk(4); t1 != 4*t4 {
		t.Errorf("1-server=%d, 4-server=%d; want exact 4x speedup", t1, t4)
	}
}

// linearPool is the dispatcher Pool replaced: scan every server for the
// earliest free one, lowest index first on ties.
type linearPool struct {
	eng     *Engine
	servers []Tick
}

func (p *linearPool) Acquire(dur Tick) Tick {
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
	p.servers[best] = start + dur
	return p.servers[best]
}

// TestPoolMatchesLinearScan drives the heap-ordered pool and the
// linear scan through the same random arrivals and durations (bursts
// at one tick, idle gaps, zero durations): every request must complete
// at the same tick.
func TestPoolMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		k := 1 + r.Intn(40)
		e := NewEngine()
		p := NewPool(e, k)
		ref := &linearPool{eng: e, servers: make([]Tick, k)}
		var busy Tick
		for i := 0; i < 2000; i++ {
			if r.Intn(3) == 0 {
				e.RunFor(Tick(r.Intn(400)))
			}
			dur := Tick(r.Intn(1000))
			got, want := p.Acquire(dur, nil, nil), ref.Acquire(dur)
			if got != want {
				t.Fatalf("seed %d, k %d, request %d at %d: pool completes at %d, linear scan at %d",
					seed, k, i, e.Now(), got, want)
			}
			busy += dur
		}
		if p.Served() != 2000 || p.BusyTicks() != busy {
			t.Fatalf("seed %d: served %d busy %d, want 2000 and %d", seed, p.Served(), p.BusyTicks(), busy)
		}
	}
}
