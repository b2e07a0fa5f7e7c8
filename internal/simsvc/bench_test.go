package simsvc

import (
	"sync/atomic"
	"testing"

	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/store"
	"zng/internal/workload"
)

// BenchmarkServiceThroughput measures end-to-end request throughput
// against a warmed store at TestOptions scale: every request pays the
// full serving path — content-address hashing, submit, job lookup —
// and is satisfied without simulating. This is the
// baseline trajectory for future scaling work (sharding, batching,
// multi-node): the serving overhead a hit costs, as requests/sec.
func BenchmarkServiceThroughput(b *testing.B) {
	o := experiments.TestOptions()
	mix := o.Mixes[0]
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Config{Store: st})
	defer svc.Close()
	// Warm: one real simulation lands the cell in memory and on disk.
	if _, err := svc.Run(platform.GDDR5, mix, o.Scale, o.Cfg); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := svc.Run(platform.GDDR5, mix, o.Scale, o.Cfg)
			if err != nil {
				b.Fatal(err)
			}
			if r.IPC <= 0 {
				b.Fatal("served result lost its IPC")
			}
		}
	})
	b.StopTimer()
	if st := svc.Stats(); st.Sims != 1 {
		b.Fatalf("benchmark simulated %d times, want the single warmup", st.Sims)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServiceTiered compares the serving hot path per tier under
// retention pressure: MaxJobs 1 evicts nearly every job memo, so each
// request over a 64-cell working set re-resolves its cell — from the
// warmed memory tier ("memory"), or with the tier disabled from the
// store through a full queue + worker round trip ("disk"). The gap is
// the tier's reason to exist: memory must be well over 5x cheaper.
func BenchmarkServiceTiered(b *testing.B) {
	b.Run("memory", func(b *testing.B) { benchTieredServing(b, 4096) })
	b.Run("disk", func(b *testing.B) { benchTieredServing(b, 0) })
}

func benchTieredServing(b *testing.B, cacheEntries int) {
	const cells = 64
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	stub := func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1.5, Cycles: 1000, Insts: 1500}, nil
	}
	svc := New(Config{Store: st, MaxJobs: 1, CacheEntries: cacheEntries, Simulate: stub})
	defer svc.Close()

	o := experiments.TestOptions()
	mix := o.Mixes[0]
	reqs := make([]Request, cells)
	for i := range reqs {
		reqs[i] = Request{Kind: platform.GDDR5, Mix: mix, Scale: o.Scale * (1 + float64(i)/cells), Cfg: o.Cfg}
		// Warm: every cell simulated once, written through to the store
		// (and the tier when present).
		if _, err := svc.Do(reqs[i]); err != nil {
			b.Fatal(err)
		}
	}

	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := svc.Do(reqs[next.Add(1)%cells])
			if err != nil {
				b.Fatal(err)
			}
			if r.IPC <= 0 {
				b.Fatal("served result lost its IPC")
			}
		}
	})
	b.StopTimer()
	if sims := svc.Stats().Sims; sims != cells {
		b.Fatalf("benchmark re-simulated: %d sims, want the %d warmups", sims, cells)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
