package ftl

import (
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/sim"
)

// benchPages is the translated working set: big enough that the
// mapping state dwarfs any cache, small enough that neither FTL
// triggers GC during the warm-up writes.
const benchPages = 1 << 16

// benchAddrs lays the working set out the way workload apps do: two
// address spaces, each with a sequential region and a strided region,
// so the page-table population has the same top-level clustering the
// simulator produces.
func benchAddrs(cfg config.Flash) []uint64 {
	addrs := make([]uint64, 0, benchPages)
	pb := uint64(cfg.PageBytes)
	for app := uint64(0); app < 2; app++ {
		base := (app + 1) << 40
		for i := uint64(0); i < benchPages/4; i++ {
			addrs = append(addrs, base|i*pb)         // sequential region
			addrs = append(addrs, base|1<<36|i*3*pb) // strided "hot" region
		}
	}
	return addrs
}

// BenchmarkFTLTranslate measures the per-access translation cost of
// both FTLs on a pre-touched working set — the hot path every
// simulated sector access walks.
func BenchmarkFTLTranslate(b *testing.B) {
	fcfg := config.Default().Flash
	addrs := benchAddrs(fcfg)

	b.Run("pagemapped", func(b *testing.B) {
		eng := sim.NewEngine()
		p := NewPageMapped(eng, flash.New(eng, fcfg), config.Default().FTL)
		for _, va := range addrs {
			p.Lookup(va)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink Loc
		for i := 0; i < b.N; i++ {
			sink = p.Lookup(addrs[i%len(addrs)])
		}
		_ = sink
	})

	b.Run("split", func(b *testing.B) {
		eng := sim.NewEngine()
		s := NewSplit(eng, flash.New(eng, fcfg), config.Default().FTL)
		for _, va := range addrs {
			s.ReadLoc(va)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink Loc
		for i := 0; i < b.N; i++ {
			sink = s.ReadLoc(addrs[i%len(addrs)])
		}
		_ = sink
	})

	// The write path exercises the owner/reverse mapping and the log
	// decoders, not just the forward table.
	b.Run("split-write", func(b *testing.B) {
		eng := sim.NewEngine()
		s := NewSplit(eng, flash.New(eng, fcfg), config.Default().FTL)
		for _, va := range addrs {
			s.ReadLoc(va)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.WritePage(addrs[i%len(addrs)], nil, nil)
			eng.Run()
		}
	})
}
