package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The two catalogs below are
// the complete list the harness emits; BENCHMARK.json declares the
// same names, units and directions (TestBenchmarkJSON keeps them in
// step).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the simulator or of zngd sees. Every
// workload reports every one of them, each from the medians over the
// run's operations: a simulation cell for the sim workloads, a served
// cell for serve-sweep.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	// latency_rel is the median operation time over the median time
	// of the harness's reference computation in the same run
	// (reference.go): the operation's time in units of the host's
	// momentary speed.
	{"latency_rel", "ratio", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"allocs_per_op", "count", "lower"},
}

// perLayer is the traced run's breakdown. A metric that does not apply
// to a workload (a flash counter on serve-sweep, a serving counter on
// a simulation cell) reports 0 from 0 samples.
var perLayer = []metricDef{
	// The raw times behind latency_rel, the CPU time per operation,
	// and the rate. They drift with the load other tenants put on a
	// shared host by more than any bound the end-to-end section may
	// set, so they are reported here, ungated.
	{"latency_ms", "ms", "lower"},
	{"reference_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},

	// Host CPU self time per simulator package, in percent of the
	// profiled samples; the shares sum to 100.
	{"cpu.sim", "%", "lower"},
	{"cpu.gpu", "%", "lower"},
	{"cpu.cache", "%", "lower"},
	{"cpu.mmu", "%", "lower"},
	{"cpu.mem", "%", "lower"},
	{"cpu.workload", "%", "lower"},
	{"cpu.ftl", "%", "lower"},
	{"cpu.flash", "%", "lower"},
	{"cpu.noc", "%", "lower"},
	{"cpu.regcache", "%", "lower"},
	{"cpu.prefetch", "%", "lower"},
	{"cpu.ssd", "%", "lower"},
	{"cpu.dram", "%", "lower"},
	{"cpu.platform", "%", "lower"},
	{"cpu.runtime_malloc", "%", "lower"},
	{"cpu.runtime_gc", "%", "lower"},
	{"cpu.runtime_maps", "%", "lower"},
	{"cpu.other", "%", "lower"},

	// Public calls the cell child times around itself (unprofiled cells).
	{"workload.apps_s", "s", "lower"},
	{"platform.run_apps_s", "s", "lower"},
	{"report.encode_ms", "ms", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"host.heap_sys_mib", "MiB", "lower"},
	{"host.alloc_mib_per_op", "MiB", "lower"},
	{"host.minsts_per_s", "Minst/s", "higher"},

	// Simulated counters from platform.Result: deterministic for a
	// seed, so a change that only speeds up the simulator leaves them
	// identical.
	{"gpu.insts", "count", "higher"},
	{"gpu.sim_cycles", "count", "lower"},
	{"gpu.ipc", "ratio", "higher"},
	{"cache.l2_hit_rate", "ratio", "higher"},
	{"mmu.tlb_hit_rate", "ratio", "higher"},
	{"mmu.translation_state_bytes", "B", "lower"},
	{"flash.read_gbps", "GB/s", "higher"},
	{"flash.write_gbps", "GB/s", "higher"},
	{"flash.plane_writes_max", "count", "lower"},
	{"ftl.mapped_pages", "count", "lower"},
	{"ftl.log_programs", "count", "lower"},
	{"ftl.gc_merges", "count", "lower"},
	{"ftl.stalled_writes", "count", "lower"},
	{"ftl.gc_runs", "count", "lower"},
	{"regcache.hits", "count", "higher"},
	{"regcache.evictions", "count", "lower"},
	{"regcache.read_hits", "count", "higher"},
	{"noc.mesh_bytes", "B", "lower"},
	{"prefetch.bytes", "B", "lower"},
	{"prefetch.issued", "count", "lower"},
	{"platform.demand_fills", "count", "lower"},
	{"platform.sense_merges", "count", "higher"},
	{"platform.reg_page_hits", "count", "higher"},
	{"ssd.buf_hits", "count", "higher"},
	{"ssd.buf_misses", "count", "lower"},
	{"ssd.engine_busy_ticks", "count", "lower"},
	{"ssd.channel_bytes", "B", "lower"},

	// Serving, from the sweeps and each restarted daemon's /metrics.
	{"sweep.disk_ms", "ms", "lower"},
	{"sweep.memory_ms", "ms", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"remote.repoll_ratio", "ratio", "lower"},
	{"api.run_p50_ms", "ms", "lower"},
	{"api.poll_p50_ms", "ms", "lower"},

	// Serving, from daemons that trace every request (/v1/trace/stats);
	// sim and store_put come from the set-up campaign.
	{"span.http.p50_ms", "ms", "lower"},
	{"span.queue.p50_ms", "ms", "lower"},
	{"span.tier_disk.p50_ms", "ms", "lower"},
	{"span.sim.p50_ms", "ms", "lower"},
	{"span.store_put.p50_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},

	// Public calls the harness times in-process over the warmed
	// documents.
	{"cellkey.key_ns", "ns", "lower"},
	{"store.get_us", "us", "lower"},
	{"report.decode_us", "us", "lower"},
	{"report.encode_us", "us", "lower"},
	{"restier.get_ns", "ns", "lower"},
	{"simsvc.do_us", "us", "lower"},
	{"api.handler_us", "us", "lower"},
	{"transport.self_us", "us", "lower"},

	{"campaign.cells_per_s", "1/s", "higher"},
}

// samples collects raw observations per metric name.
type samples map[string][]float64

func (s samples) add(name string, v ...float64) { s[name] = append(s[name], v...) }

// addRelative records the median of num over the median of
// reference_ms as the one sample of name.
func (s samples) addRelative(name, num string) {
	if len(s[num]) > 0 && len(s["reference_ms"]) > 0 {
		s.add(name, median(s[num])/median(s["reference_ms"]))
	}
}

// addReference times the reference computation once.
func (s samples) addReference() {
	s.add("reference_ms", float64(reference().Nanoseconds())/1e6)
}

// summary is one metric's reported value (the median of its samples)
// and the spread behind it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// summarize reduces the samples of every metric in defs. A metric
// without samples reports 0 with n = 0. Non-finite samples are
// dropped, since JSON cannot carry them.
func summarize(defs []metricDef, s samples) map[string]summary {
	out := make(map[string]summary, len(defs))
	for _, d := range defs {
		var xs []float64
		for _, v := range s[d.name] {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		sum := summary{Unit: d.unit, N: len(xs)}
		if len(xs) > 0 {
			sum.Q1, sum.Value, sum.Q3 = quartiles(xs)
		}
		out[d.name] = sum
	}
	return out
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads this harness prints are the ones a
// comparison script recomputes from the reported values. The middle
// cut point is the median. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle cut point of quartiles.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	k := int(math.Ceil(p / 100 * float64(len(d))))
	return d[max(0, min(k-1, len(d)-1))]
}
