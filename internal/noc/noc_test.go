package noc

import (
	"testing"

	"zng/internal/sim"
)

func TestXbarDelivery(t *testing.T) {
	eng := sim.NewEngine()
	x := NewXbar(eng, 4, 8, 5)
	var at sim.Tick
	x.Send(2, 64, sim.Func(func() { at = eng.Now() }), nil)
	eng.Run()
	if at != 64/8+5 {
		t.Errorf("delivery at %d, want 13", at)
	}
	if n := x.outs[2].Bytes(); n != 64 {
		t.Errorf("bytes = %d", n)
	}
}

func TestXbarIndependentOutputs(t *testing.T) {
	eng := sim.NewEngine()
	x := NewXbar(eng, 2, 1, 0)
	var a, b sim.Tick
	x.Send(0, 100, sim.Func(func() { a = eng.Now() }), nil)
	x.Send(1, 100, sim.Func(func() { b = eng.Now() }), nil)
	eng.Run()
	if a != 100 || b != 100 {
		t.Errorf("a=%d b=%d, want both 100 (no cross-port contention)", a, b)
	}
}

func TestXbarOutputContention(t *testing.T) {
	eng := sim.NewEngine()
	x := NewXbar(eng, 2, 1, 0)
	var a, b sim.Tick
	x.Send(0, 100, sim.Func(func() { a = eng.Now() }), nil)
	x.Send(0, 100, sim.Func(func() { b = eng.Now() }), nil)
	eng.Run()
	if a != 100 || b != 200 {
		t.Errorf("a=%d b=%d, want 100 and 200 (serialized)", a, b)
	}
}

func TestMeshHops(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 8, 1)
	if m.Nodes() != 16 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	cases := []struct{ src, dst, hops int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 15, 6}, {5, 6, 1}, {12, 3, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestMeshLatencyScalesWithDistance(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 8, 2)
	var near, far sim.Tick
	m.Send(0, 1, 64, sim.Func(func() { near = eng.Now() }), nil)
	eng.Run()
	e2 := sim.NewEngine()
	m2 := NewMesh(e2, 4, 8, 2)
	m2.Send(0, 15, 64, sim.Func(func() { far = e2.Now() }), nil)
	e2.Run()
	if far <= near {
		t.Errorf("far (%d) should exceed near (%d)", far, near)
	}
	// 1 hop + ejection vs 6 hops + ejection; each hop = 8 ser + 2 lat.
	if near != 2*(64/8+2) || far != 7*(64/8+2) {
		t.Errorf("near=%d far=%d, want 20 and 70", near, far)
	}
}

func TestMeshLinkContention(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 1, 0)
	// Two messages share the east link (0,0)->(1,0).
	var a, b sim.Tick
	m.Send(0, 1, 50, sim.Func(func() { a = eng.Now() }), nil)
	m.Send(0, 1, 50, sim.Func(func() { b = eng.Now() }), nil)
	eng.Run()
	if b-a != 50 {
		t.Errorf("second message should trail by one serialization: a=%d b=%d", a, b)
	}
}

func TestMeshDisjointPathsParallel(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 1, 0)
	var a, b sim.Tick
	m.Send(0, 1, 50, sim.Func(func() { a = eng.Now() }), nil) // east on row 0
	m.Send(2, 3, 50, sim.Func(func() { b = eng.Now() }), nil) // east on row 1
	eng.Run()
	if a != b {
		t.Errorf("disjoint paths should not contend: a=%d b=%d", a, b)
	}
}

func TestMeshSelfSend(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 8, 3)
	var at sim.Tick
	m.Send(5, 5, 8, sim.Func(func() { at = eng.Now() }), nil)
	eng.Run()
	if at != 1+3 {
		t.Errorf("self send at %d, want ejection only (4)", at)
	}
	if m.Messages.Value() != 1 {
		t.Errorf("messages = %d", m.Messages.Value())
	}
}

func TestMeshBadEndpointsPanic(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("want panic for out-of-range node")
		}
	}()
	m.Send(0, 99, 8, nil, nil)
}

// TestBusSerializesEverything: a legacy flash channel is one sim.Port
// that every package on it shares, so transfers queue back to back.
func TestBusSerializesEverything(t *testing.T) {
	eng := sim.NewEngine()
	b := sim.NewPort(eng, 2, 1) // a legacy channel, as internal/ssd builds it
	var t1, t2 sim.Tick
	b.Send(100, sim.Func(func() { t1 = eng.Now() }), nil)
	b.Send(100, sim.Func(func() { t2 = eng.Now() }), nil)
	eng.Run()
	if t1 != 51 || t2 != 101 {
		t.Errorf("t1=%d t2=%d, want 51 and 101", t1, t2)
	}
	if b.BusyTicks() != 100 {
		t.Errorf("busy = %d", b.BusyTicks())
	}
}

func TestMeshAggregateExceedsBus(t *testing.T) {
	// The architectural claim: a mesh's aggregate bandwidth beats one
	// shared bus of the same link width. Drive 4 disjoint row transfers
	// vs 4 bus transfers.
	engM := sim.NewEngine()
	m := NewMesh(engM, 2, 1, 0)
	doneM := 0
	for _, sd := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		m.Send(sd[0], sd[1], 100, sim.Func(func() { doneM++ }), nil)
	}
	engM.Run()
	meshTime := engM.Now()

	engB := sim.NewEngine()
	b := sim.NewPort(engB, 1, 0)
	doneB := 0
	for i := 0; i < 4; i++ {
		b.Send(100, sim.Func(func() { doneB++ }), nil)
	}
	engB.Run()
	busTime := engB.Now()

	if doneM != 4 || doneB != 4 {
		t.Fatal("transfers incomplete")
	}
	if meshTime >= busTime {
		t.Errorf("mesh (%d) should beat shared bus (%d)", meshTime, busTime)
	}
}
