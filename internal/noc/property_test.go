package noc

import (
	"testing"
	"testing/quick"

	"zng/internal/sim"
)

// Property: every message injected into the mesh is delivered exactly
// once, regardless of endpoints and sizes.
func TestMeshDeliversAllProperty(t *testing.T) {
	f := func(msgs []uint16) bool {
		eng := sim.NewEngine()
		m := NewMesh(eng, 4, 4, 1)
		want := len(msgs)
		got := 0
		for _, raw := range msgs {
			src := int(raw) % 16
			dst := int(raw>>4) % 16
			size := int(raw%512) + 1
			m.Send(src, dst, size, sim.Func(func() { got++ }), nil)
		}
		eng.Run()
		return got == want && m.Messages.Value() == uint64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: delivery time is monotone in hop distance for equal-size
// unloaded transfers.
func TestMeshLatencyMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		srcA, dstA := int(a)%16, int(a>>4)%16
		srcB, dstB := int(b)%16, int(b>>4)%16
		t1 := soloDelivery(srcA, dstA)
		t2 := soloDelivery(srcB, dstB)
		e1 := NewMesh(sim.NewEngine(), 4, 4, 1)
		if e1.Hops(srcA, dstA) < e1.Hops(srcB, dstB) {
			return t1 < t2
		}
		if e1.Hops(srcA, dstA) > e1.Hops(srcB, dstB) {
			return t1 > t2
		}
		return t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func soloDelivery(src, dst int) sim.Tick {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, 1)
	var at sim.Tick
	m.Send(src, dst, 64, sim.Func(func() { at = eng.Now() }), nil)
	eng.Run()
	return at
}
