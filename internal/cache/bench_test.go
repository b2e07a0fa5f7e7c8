package cache

import (
	"testing"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
)

// BenchmarkCacheAccess times one read through the ZnG L2 geometry (the
// bank-granted tag lookup and the completion, plus the fill and
// eviction on a miss) on a stream whose lines all stay resident, on
// one that cycles through four times the capacity, so that every read
// misses and evicts, and on row-lru, which cycles through exactly Ways
// lines of one row, so that every read hits the row's least recently
// used way and ages all the others.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := config.Default().L2STT
	rows := uint64(cfg.Banks * cfg.Sets)
	lines := rows * uint64(cfg.Ways)
	for _, bc := range []struct {
		name   string
		span   uint64 // distinct lines the stream cycles through
		stride uint64 // line-number step between them
	}{
		{"hit", lines / 4, 1},
		{"miss", lines * 4, 1},
		{"row-lru", uint64(cfg.Ways), rows},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			c := New(eng, cfg, mem.Func(func(r *mem.Request) { eng.Schedule(100, r, nil) }), "L2")
			r := &mem.Request{Size: cfg.LineBytes}
			var n uint64
			read := func() {
				r.Addr = n % bc.span * bc.stride * uint64(cfg.LineBytes)
				n++
				c.Access(r)
				eng.Run()
			}
			// Warm up: the hit and row-lru streams become resident, the
			// miss stream fills every row.
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
