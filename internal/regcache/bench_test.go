package regcache

import (
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/sim"
)

// refusingL2 declines every line, so spills never use up PinLines.
type refusingL2 struct{}

func (refusingL2) PinDirty(uint64) bool { return false }

// BenchmarkRegcacheWrite times a store stream that evicts on every
// write: the Table I grouped file with package 0's 512 registers full
// and its thrashing checker engaged, each store a new page homed in
// package 0. Evictions spill to an L2 that takes nothing, so flash
// programs stay out of the measurement and what remains is the
// register file's own work per evicting store.
func BenchmarkRegcacheWrite(b *testing.B) {
	eng := sim.NewEngine()
	fc := config.Default().Flash
	fc.RegsPerPlane = 8
	bb := flash.New(eng, fc)
	c := New(eng, config.Default().RegCache, bb, ftl.NewSplit(eng, bb, config.Default().FTL), Options{L2: refusingL2{}})
	planes, planesPerPkg := uint64(bb.Planes()), uint64(fc.DiesPerPkg*fc.PlanesPerDie)
	page := uint64(0)
	write := func() {
		vp := page*planes + page%planesPerPkg
		c.Write(vp*uint64(fc.PageBytes), nil, nil)
		if page++; page%256 == 0 {
			eng.Run()
		}
	}
	for page < 2*planesPerPkg*uint64(fc.RegsPerPlane) {
		write()
	}
	if !c.Thrashing() {
		b.Fatal("thrashing checker did not engage")
	}
	evictions := c.Evictions.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
	b.StopTimer()
	if got := c.Evictions.Value() - evictions; got != uint64(b.N) {
		b.Fatalf("%d evictions in %d stores", got, b.N)
	}
}
