package cache

import (
	"testing"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
)

// BenchmarkCacheAccess times one read through the ZnG L2 geometry (the
// bank-granted tag lookup and the completion, plus the fill and
// eviction on a miss) on a stream whose lines all stay resident and on
// one that cycles through four times the capacity, so that every read
// misses and evicts.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := config.Default().L2STT
	lines := uint64(cfg.Banks * cfg.Sets * cfg.Ways)
	for _, bc := range []struct {
		name string
		span uint64 // distinct lines the stream cycles through
	}{
		{"hit", lines / 4},
		{"miss", lines * 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			c := New(eng, cfg, mem.Func(func(r *mem.Request) { eng.Schedule(100, r, nil) }), "L2")
			r := &mem.Request{Size: cfg.LineBytes}
			var n uint64
			read := func() {
				r.Addr = n % bc.span * uint64(cfg.LineBytes)
				n++
				c.Access(r)
				eng.Run()
			}
			// Warm up: the hit stream becomes resident, the miss stream
			// fills every row.
			for range min(bc.span, 2*lines) {
				read()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read()
			}
			b.StopTimer()
			if want := bc.span < lines; (c.Hits.Value() > 0) != want || (c.Evictions.Value() > 0) == want {
				b.Fatalf("%s stream: %d hits, %d evictions", bc.name, c.Hits.Value(), c.Evictions.Value())
			}
		})
	}
}
