// Command zngbench is the repository's benchmark. It measures the
// simulator and the zngd serving stack end to end, and splits the
// cost by layer, from one command and a seed.
//
// Usage, from the repository root:
//
//	bash cmd/zngbench/run.sh --workload zng-read --seed 1 --seconds 20 --trace 0
//
// run.sh builds zngbench and zngd from source under .bench_build/
// (Go build cache and run files included) and runs one workload.
// zngbench is a module of its own that reaches the simulator's
// packages through a replace directive, so a root `go build ./...`
// skips it; its tests run with `cd cmd/zngbench && go test ./...`.
//
// Flags: -workload (required), -seed, -seconds (measured time),
// -trace 0|1, -quick (smoke mode: scale 0.05, 2 cells, 1 s of load),
// -out FILE (the full result document), -zngd (the daemon binary, for
// serve-sweep) and -work (directory for run files).
//
// # Output
//
// Standard output carries the host provenance (CPU model, nproc,
// GOMAXPROCS, Go version, platform, VCS revision), the seed, the
// operations attempted and failed, the result digest of a sim
// workload, and a table of every metric with its unit, sample count
// and quartiles. Its last line is one JSON object with the keys
// correct, attempted, failed and metrics (name → value and unit);
// -out writes the same with provenance and spreads. Values are medians
// over the run's samples. The exit status is non-zero when any
// operation failed or any check did not hold.
//
// # Workloads
//
// The seed is XORed into every built app's Spec.Seed after
// workload.Mix.Apps, so the simulator only ever receives generated
// inputs; seed 0 reproduces the documented cells. Each sim sample is
// one fresh child process (the harness re-executes itself as
// `zngbench cell`), timed from exec to exit by the parent.
//
//   - zng-read: ZnG on bfs1-gaus at scale 1.28 (the scale-sweep top
//     rung, 64x). The paper's headline platform on a read-dominated
//     pair: STT-MRAM L2, dynamic prefetch, flash-register read checks,
//     split-FTL lookups, flash senses and the mesh, with no flash
//     programs. A write-path change should not move it.
//   - zngbase-write: ZnG-base on betw-back at scale 1.28, the Fig. 8b
//     cell and the only paper cell whose writes reach flash: register
//     evictions and log-block programs through regcache, ftl and flash.
//     Prefetch and the STT L2 are off.
//   - hybrid-read: HybridGPU on bfs1-gaus at scale 1.28. The same trace
//     as zng-read through the baseline SSD engine (page-mapped FTL,
//     DRAM buffer, legacy channels); it bypasses noc, regcache, prefetch
//     and the split FTL, so it is the no-change control for ZnG-only
//     work. Shared layers (sim, gpu, cache, mmu, workload) move it and
//     zng-read alike, and its larger heap shows memory work first.
//   - serve-sweep: the real zngd binary with its default retention and
//     tier sizes, replaying a campaign the way its callers do. Set-up
//     starts zngd on a fresh store and posts the grid (GDDR5, HybridGPU,
//     ZnG and Optane × six solo scenarios × scales 0.05 and 0.1, 48
//     cells) to /v1/campaigns, as `zngsweep -coordinator` does, which
//     simulates every cell once. The load phase restarts the daemon over
//     that store, again and again, and each time runs the grid twice
//     through campaign.Executor and remote.Dispatcher, the code of
//     `zngsweep -peers`: two cells in flight, each an async POST /v1/run
//     followed by GET /v1/jobs/{id} polls until done. The restarted
//     daemon holds no jobs, so the first sweep reads every cell from the
//     store; the second is answered from the jobs the first left in
//     memory. The seed orders the grid's platform and scenario axes, and
//     so the request sequence. It exercises the API, job admission and
//     retention, store read and decode, and the result documents' JSON
//     (about 340 B for GDDR5 and Optane, 8 KB for the flash platforms),
//     with no simulation. Sim-core changes should not move it.
//
// # End-to-end metrics
//
// Every workload reports each of them; an operation is one cell
// (sim) or one served cell (serve-sweep).
//
//   - setup_s: sim, exec of the child to platform.RunApps entry (median
//     over cells); serve, daemon spawn to set-up campaign done (median
//     over three boots).
//   - latency_rel: the median of latency_ms over the median of
//     reference_ms, both from the same run. reference_ms times a fixed
//     computation that belongs to the harness (reference.go: map
//     updates, random access to a 4 MiB table, small allocations, a
//     sort), once after every cell or restart. No program change can
//     move it, so latency_rel is an operation's time in units of the
//     host's speed at that moment; see the last section for why the raw
//     time is not gated.
//   - peak_rss_mib: the child's, or the restarted daemon's, VmHWM from
//     /proc before it exits. The restarted daemon never simulates, so
//     its peak is the serving footprint.
//   - allocs_per_op: sim, runtime Mallocs around RunApps; serve, mallocs
//     per cell of an in-process simsvc handler configured like the
//     daemon, serving the two requests remote.Client makes per cell for
//     a disk sweep and a memory sweep over the warmed store.
//
// # Per-layer metrics (-trace 1)
//
//   - latency_ms: sim, the cell child from exec to exit; serve, one
//     cell's remote.Dispatcher.Run call, submit to the poll that finds
//     it done (over both sweeps of every restart). A disk-served job
//     that is not done at the first poll waits out remote.Client's 50 ms
//     back-off, so a serve cell takes either well under 2 ms or over
//     50 ms; remote.repoll_ratio counts the second kind.
//   - reference_ms: the reference computation behind latency_rel.
//   - cpu_ms_per_op: sim, the child's user and system CPU time; serve,
//     the restarted daemon's CPU time from spawn to exit over the cells
//     it served (median over restarts).
//   - ops_per_s: cells per second of cell time (unprofiled cells);
//     served cells per second of sweep time, per restart.
//   - cpu.*: host CPU self time by simulator package, in percent, from
//     CPU profiles (500 Hz) of every other cell, merged and folded by
//     `go tool pprof -top`; runtime time splits into malloc, gc, maps
//     and other. The shares sum to 100.
//   - workload.apps_s, platform.run_apps_s, report.encode_ms,
//     host.gc_cycles, host.heap_sys_mib, host.alloc_mib_per_op,
//     host.minsts_per_s: the child's own timings of its public calls,
//     from the unprofiled cells; together they split latency_ms and
//     setup_s.
//   - gpu.*, cache.*, mmu.*, flash.*, ftl.*, regcache.*, noc.*,
//     prefetch.*, platform.*, ssd.*: simulated counters from
//     platform.Result. They are deterministic for a seed, so a change
//     that only speeds up the simulator must leave them identical.
//   - sweep.disk_ms, sweep.memory_ms, serve.p99_ms, remote.repoll_ratio,
//     api.run_p50_ms, api.poll_p50_ms: each sweep's wall time, the
//     cells' tail, the polls beyond one per cell, and the daemon's own
//     p50 of its two endpoints from /metrics.
//   - span.http.p50_ms, span.queue.p50_ms, span.tier_disk.p50_ms: from
//     restarted daemons that trace every request (-trace-sample 1), read
//     from /v1/trace/stats; span.sim.p50_ms and span.store_put.p50_ms
//     come from the traced set-up campaign. trace.overhead_ratio is
//     untraced over traced ops_per_s.
//   - cellkey.key_ns, store.get_us, report.decode_us, report.encode_us,
//     restier.get_ns, simsvc.do_us, api.handler_us (httptest, no
//     network, per cell of the memory sweep) and transport.self_us
//     (median memory-sweep cell latency minus api.handler_us): the
//     serving layers' public calls, timed in-process over the warmed
//     documents. They say whether a cell's time goes to transport and
//     the client, handler and JSON, the tier or the store.
//   - campaign.cells_per_s: the set-up campaign's rate, which sets
//     serve-sweep's setup_s.
//
// A metric that does not apply to a workload reports 0 from 0 samples.
//
// Which end-to-end metric each layer should move, and where:
//
//   - cpu.runtime_malloc, cpu.runtime_gc: allocs_per_op and latency_rel
//     on all three sim workloads (typed events).
//   - cpu.runtime_maps: latency_rel on zng-read (MSHR and sense maps)
//     and hybrid-read (SSD page buffer).
//   - cpu.noc, cpu.prefetch: latency_rel on zng-read only.
//   - cpu.regcache, cpu.ftl, cpu.flash: latency_rel on zngbase-write.
//   - cpu.ssd, cpu.dram: latency_rel on hybrid-read only.
//   - mmu.translation_state_bytes, ftl.mapped_pages: peak_rss_mib,
//     on hybrid-read first.
//   - the serving and span metrics and the timed public calls:
//     latency_rel and allocs_per_op on serve-sweep; remote.repoll_ratio
//     and sweep.disk_ms show whether a latency change is the poll
//     back-off rather than the daemon, and cpu_ms_per_op whether the
//     daemon does less work. None of the cpu.* layers should move
//     serve-sweep.
//
// # Traced and untraced runs
//
// End-to-end numbers come from untraced runs, with the daemon's span
// recorder off (-trace-buf 0). -trace 1 is a separate run that
// profiles half the cells, or splits its load phase between untraced
// restarts and restarts that trace every request, and reports only the
// per-layer metrics. The cost of tracing shows as trace.overhead_ratio
// and as the difference between the two runs' timings.
//
// # Correctness
//
// A sim operation fails on a child error, a result that does not
// survive report.DecodeResult/EncodeResult byte for byte, an
// implausible result, a broken workload invariant (zngbase-write must
// program flash, zng-read must prefetch, hybrid-read must hit its
// buffer; not checked at -quick scale), or a result digest (SHA-256 of
// report.EncodeResult) that differs from the run's other samples. A
// serve operation fails when the dispatcher reports an error (any
// non-success reply, 429 included, or an undecodable one), or when the
// result is not the stored document of that cell, label aside. A
// restarted daemon whose /metrics shows a simulation, or other than
// one disk hit and one memory hit per cell, fails the run.
//
// # Comparing two commits
//
// Build both commits and run them with identical flags. Make at least
// ten pairs of runs, alternating which commit runs first, on seeds the
// change was not developed against, plus one held-out seed. Claim a
// gain only when the change wins at least nine pairs in ten and the
// medians differ by more than the distance between the parent's own
// quartiles; for every other metric and workload the change must stay
// within the bound in BENCHMARK.json. A count the program makes
// supports a claim only when it repeats exactly and was named
// beforehand: the simulated counters do for a seed, allocs_per_op
// does not quite.
//
// Host time is noisy on shared machines. On a 2-vCPU Xeon VM shared
// with other tenants, the same 64x cell took 0.7 to 1.3 s from minute
// to minute, and its CPU time moved with its wall time: over ten 20 s
// runs, one seed per run, the distance between the quartiles of
// latency_ms or cpu_ms_per_op was 15 to 30% of the median on the sim
// workloads. latency_rel divides that drift out: over sets of ten runs
// per workload its quartile distance was 2.3 to 8.5% of the median,
// and its medians moved by at most 6% between sets. setup_s cannot be
// divided out, and its median moved by up to 37% between two sets on
// a sim workload. Timing claims on such a host need the paired
// protocol above; host provenance is in every output so that numbers
// from different hosts are never compared silently.
package main
