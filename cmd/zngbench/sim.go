package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/workload"
)

// simWorkload is one simulation cell a sim workload repeats, each
// sample in a fresh child process.
type simWorkload struct {
	platform, mix string
	// check is a structural invariant of the 64x cell the workload was
	// chosen for; a result that breaks it is wrong for any seed. The
	// -quick cells are too small for it (writes stay in the registers).
	check func(platform.Result) error
}

// simScale is the scale-sweep top rung (64x); quickScale keeps the
// -quick smoke under a second per cell.
const (
	simScale   = 1.28
	quickScale = 0.05
	// minCells bounds a short run from below, so every run compares
	// at least this many result digests.
	minCells  = 3
	profileHz = 500
)

var simWorkloads = map[string]simWorkload{
	"zng-read": {"ZnG", "bfs1-gaus", func(r platform.Result) error {
		return positive(r, "prefetch_issued", "sense_merges")
	}},
	"zngbase-write": {"ZnG-base", "betw-back", func(r platform.Result) error {
		return positive(r, "log_programs", "reg_evictions")
	}},
	"hybrid-read": {"HybridGPU", "bfs1-gaus", func(r platform.Result) error {
		return positive(r, "buf_hits", "channel_bytes")
	}},
}

func positive(r platform.Result, keys ...string) error {
	for _, k := range keys {
		if !(r.Extra[k] > 0) {
			return fmt.Errorf("%s %v: expected %s > 0", r.Kind, r.Workload, k)
		}
	}
	return nil
}

// cellReport is what a cell child prints on stdout.
type cellReport struct {
	// EntryUnixNS is the wall clock at platform.RunApps entry; the
	// parent subtracts its exec instant to get the cell's set-up time.
	EntryUnixNS int64   `json:"entry_unix_ns"`
	AppsS       float64 `json:"apps_s"`
	RunAppsS    float64 `json:"run_apps_s"`
	EncodeMS    float64 `json:"encode_ms"`
	// Mallocs, AllocBytes and GCCycles are runtime.MemStats deltas
	// around RunApps; HeapSys is read after it.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
	HeapSys    uint64 `json:"heap_sys"`
	// PeakRSSMiB is the child's VmHWM at the end.
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	// Doc is report.EncodeResult of the cell's result, byte for byte.
	Doc []byte `json:"doc"`
}

// cellMain is the child side: simulate one cell with the seed folded
// into every app and print a cellReport.
func cellMain(args []string) int {
	fs := flag.NewFlagSet("zngbench cell", flag.ContinueOnError)
	plat := fs.String("platform", "", "platform name")
	mixName := fs.String("mix", "", "scenario name")
	scale := fs.Float64("scale", simScale, "trace scale")
	seed := fs.Int64("seed", 0, "XORed into every app's Spec.Seed")
	profile := fs.String("cpuprofile", "", "write a CPU profile of the cell here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := runCellChild(*plat, *mixName, *scale, *seed, *profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zngbench cell:", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zngbench cell:", err)
		return 1
	}
	if _, err := os.Stdout.Write(append(out, '\n')); err != nil {
		return 1
	}
	return 0
}

func runCellChild(plat, mixName string, scale float64, seed int64, profile string) (cellReport, error) {
	var rep cellReport
	kind, err := platform.KindByName(plat)
	if err != nil {
		return rep, err
	}
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return rep, err
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return rep, err
		}
		defer f.Close()
		// 500 Hz instead of the default 100 Hz, so the few profiled cells
		// of one run give each small layer enough samples. StartCPUProfile
		// warns on stderr that the rate is already set, and keeps it.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			return rep, err
		}
		defer pprof.StopCPUProfile()
	}

	t := time.Now()
	apps, err := mix.Apps(scale)
	rep.AppsS = time.Since(t).Seconds()
	if err != nil {
		return rep, err
	}
	// The program only ever receives generated inputs: the seed
	// perturbs the trace generators, and seed 0 is the documented cell.
	for _, a := range apps {
		a.Spec.Seed ^= seed
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t = time.Now()
	rep.EntryUnixNS = t.UnixNano()
	res, err := platform.RunApps(kind, mix.Name, apps, config.Default())
	rep.RunAppsS = time.Since(t).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return rep, err
	}
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rep.GCCycles = after.NumGC - before.NumGC
	rep.HeapSys = after.HeapSys

	t = time.Now()
	rep.Doc = report.EncodeResult(res)
	rep.EncodeMS = float64(time.Since(t).Nanoseconds()) / 1e6
	rep.PeakRSSMiB, err = peakRSSMiB("self")
	return rep, err
}

// peakRSSMiB reads the VmHWM of process pid ("self" for this one)
// from /proc. A child's rusage Maxrss would not do: it also counts the
// parent's resident set at the fork that started the child.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// cellSample is one child run as the parent saw it.
type cellSample struct {
	wall, setup, cpu time.Duration
	profiled         bool
	rep              cellReport
	res              platform.Result
	digest           string
}

// runCell execs the harness binary as a cell child and waits for it.
func runCell(ctx context.Context, self string, w simWorkload, scale float64, seed int64, profile string) (cellSample, error) {
	var s cellSample
	args := []string{"cell", "-platform", w.platform, "-mix", w.mix,
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-seed", strconv.FormatInt(seed, 10)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	s.wall = time.Since(start)
	if err != nil {
		return s, fmt.Errorf("cell child: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	s.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if err := json.Unmarshal(stdout.Bytes(), &s.rep); err != nil {
		return s, fmt.Errorf("cell child report: %w", err)
	}
	s.setup = time.Unix(0, s.rep.EntryUnixNS).Sub(start)
	res, err := report.DecodeResult(s.rep.Doc)
	if err != nil {
		return s, err
	}
	if !bytes.Equal(report.EncodeResult(res), s.rep.Doc) {
		return s, errors.New("result document does not survive a decode/encode round trip")
	}
	if res.Kind.String() != w.platform || !(res.IPC > 0) || res.Insts == 0 {
		return s, fmt.Errorf("implausible result: platform %s, ipc %v, insts %d", res.Kind, res.IPC, res.Insts)
	}
	if scale == simScale {
		if err := w.check(res); err != nil {
			return s, err
		}
	}
	sum := sha256.Sum256(s.rep.Doc)
	s.res, s.digest = res, hex.EncodeToString(sum[:])
	return s, nil
}

// runSim repeats the workload's cell in fresh children until the
// measured time is spent, timing the reference computation after each.
// In a traced run every other cell is profiled; the unprofiled ones
// supply the times and the child's timed calls.
func runSim(ctx context.Context, o options, w simWorkload, out *outcome) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	scale := simScale
	if o.quick {
		scale = quickScale
	}
	m := out.samples
	var cells []cellSample
	var profiles []string
	start := time.Now()
	for i := 0; ; i++ {
		if o.quick && i == 2 || !o.quick && i >= minCells && time.Since(start) >= o.seconds {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		profile := ""
		if o.trace && i%2 == 0 {
			profile = filepath.Join(o.work, fmt.Sprintf("cell-%d.prof", i))
		}
		out.attempted++
		c, err := runCell(ctx, self, w, scale, o.seed, profile)
		m.addReference()
		if err != nil {
			out.fail(fmt.Errorf("cell %d: %w", i, err))
			continue
		}
		if c.profiled = profile != ""; c.profiled {
			profiles = append(profiles, profile)
		}
		cells = append(cells, c)
	}
	out.checkDigests(cells)

	var timed, wall float64
	for _, c := range cells {
		m.add("setup_s", c.setup.Seconds())
		m.add("peak_rss_mib", c.rep.PeakRSSMiB)
		m.add("allocs_per_op", float64(c.rep.Mallocs))
		addSimCounters(m, c.res)
		if c.profiled {
			continue // its timings carry the profiler's cost
		}
		timed++
		wall += c.wall.Seconds()
		m.add("latency_ms", float64(c.wall.Nanoseconds())/1e6)
		m.add("cpu_ms_per_op", float64(c.cpu.Nanoseconds())/1e6)
		m.add("workload.apps_s", c.rep.AppsS)
		m.add("platform.run_apps_s", c.rep.RunAppsS)
		m.add("report.encode_ms", c.rep.EncodeMS)
		m.add("host.gc_cycles", float64(c.rep.GCCycles))
		m.add("host.heap_sys_mib", float64(c.rep.HeapSys)/(1<<20))
		m.add("host.alloc_mib_per_op", float64(c.rep.AllocBytes)/(1<<20))
		m.add("host.minsts_per_s", float64(c.res.Insts)/c.rep.RunAppsS/1e6)
	}
	if timed > 0 {
		m.add("ops_per_s", timed/wall)
	}
	m.addRelative("latency_rel", "latency_ms")
	if o.trace && len(profiles) > 0 {
		shares, err := cpuShares(ctx, profiles)
		if err != nil {
			out.fail(err)
		}
		for layer, v := range shares {
			m.add("cpu."+layer, v)
		}
	}
	return nil
}

// checkDigests fails every sample whose result digest differs from
// the most common one: a cell is a pure function of its inputs, so all
// samples of one run must agree.
func (out *outcome) checkDigests(cells []cellSample) {
	count := map[string]int{}
	for _, c := range cells {
		count[c.digest]++
	}
	for d, n := range count {
		if n > count[out.digest] || n == count[out.digest] && d < out.digest {
			out.digest = d
		}
	}
	for i, c := range cells {
		if c.digest != out.digest {
			out.fail(fmt.Errorf("cell sample %d: result digest %s differs from the run's %s", i, c.digest, out.digest))
		}
	}
}

// addSimCounters records platform.Result's simulated counters. Extra
// keys a platform does not produce read as 0.
func addSimCounters(m samples, r platform.Result) {
	m.add("gpu.insts", float64(r.Insts))
	m.add("gpu.sim_cycles", float64(r.Cycles))
	m.add("gpu.ipc", r.IPC)
	m.add("cache.l2_hit_rate", r.L2HitRate)
	m.add("mmu.tlb_hit_rate", r.TLBHitRate)
	m.add("flash.read_gbps", r.FlashReadGBps)
	m.add("flash.write_gbps", r.FlashWriteGBps)
	planeMax := uint64(0)
	if len(r.PlaneWrites) > 0 {
		planeMax = slices.Max(r.PlaneWrites)
	}
	m.add("flash.plane_writes_max", float64(planeMax))
	for name, key := range map[string]string{
		"mmu.translation_state_bytes": "translation_state_bytes",
		"ftl.mapped_pages":            "mapped_pages",
		"ftl.log_programs":            "log_programs",
		"ftl.gc_merges":               "gc_merges",
		"ftl.stalled_writes":          "stalled_writes",
		"ftl.gc_runs":                 "gc_runs",
		"regcache.hits":               "reg_hits",
		"regcache.evictions":          "reg_evictions",
		"regcache.read_hits":          "reg_read_hits",
		"noc.mesh_bytes":              "mesh_bytes",
		"prefetch.bytes":              "prefetch_bytes",
		"prefetch.issued":             "prefetch_issued",
		"platform.demand_fills":       "demand_fills",
		"platform.sense_merges":       "sense_merges",
		"platform.reg_page_hits":      "reg_page_hits",
		"ssd.buf_hits":                "buf_hits",
		"ssd.buf_misses":              "buf_misses",
		"ssd.engine_busy_ticks":       "engine_busy",
		"ssd.channel_bytes":           "channel_bytes",
	} {
		m.add(name, r.Extra[key])
	}
}

// cpuShares merges the CPU profiles with `go tool pprof -top` and
// folds self time by simulator layer.
func cpuShares(ctx context.Context, profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, profiles...)
	cmd := exec.CommandContext(ctx, "go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTop(string(top))
}

// simLayers are the zng/internal packages the fold reports by name;
// any other package counts as "other".
var simLayers = map[string]bool{
	"sim": true, "gpu": true, "cache": true, "mmu": true, "mem": true, "workload": true,
	"ftl": true, "flash": true, "noc": true, "regcache": true, "prefetch": true,
	"ssd": true, "dram": true, "platform": true,
}

// foldTop parses `go tool pprof -top` output and returns each layer's
// share of the total self (flat) time in percent. Layers are the
// simLayers packages, three runtime buckets and "other"; every layer
// is present, and the shares sum to 100.
func foldTop(top string) (map[string]float64, error) {
	flat := map[string]time.Duration{}
	var total time.Duration
	rows := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if f[0] == "0" {
			d, err = 0, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		flat[layerOf(f[5])] += d
		total += d
	}
	if total <= 0 {
		return nil, errors.New("pprof -top: no samples")
	}
	shares := map[string]float64{}
	for layer := range simLayers {
		shares[layer] = 0
	}
	for _, layer := range []string{"runtime_malloc", "runtime_gc", "runtime_maps", "other"} {
		shares[layer] = 0
	}
	for layer, d := range flat {
		shares[layer] = 100 * float64(d) / float64(total)
	}
	return shares, nil
}

// runtimeRules bucket runtime functions by name, first match wins.
var runtimeRules = []struct{ match, layer string }{
	{"internal/runtime/maps.", "runtime_maps"},
	{"runtime.map", "runtime_maps"},
	{"runtime.makemap", "runtime_maps"},
	{"hash", "runtime_maps"},
	{"malloc", "runtime_malloc"},
	{"runtime.newobject", "runtime_malloc"},
	{"runtime.newarray", "runtime_malloc"},
	{"runtime.makeslice", "runtime_malloc"},
	{"runtime.growslice", "runtime_malloc"},
	{"runtime.nextFree", "runtime_malloc"},
	{"runtime.heapSetType", "runtime_malloc"},
	{"runtime.memclrNoHeapPointers", "runtime_malloc"},
	{"runtime.(*mcache)", "runtime_malloc"},
	{"runtime.(*mcentral)", "runtime_malloc"},
	{"runtime.(*mheap)", "runtime_malloc"},
	{"runtime.(*mspan).writeHeapBits", "runtime_malloc"},
	{"runtime.(*mspan).init", "runtime_malloc"},
	{"runtime.(*spanSet)", "runtime_malloc"},
	{"runtime.(*pageAlloc)", "runtime_malloc"},
	{"gc", "runtime_gc"},
	{"GC", "runtime_gc"},
	{"scan", "runtime_gc"},
	{"mark", "runtime_gc"},
	{"Mark", "runtime_gc"},
	{"sweep", "runtime_gc"},
	{"greyobject", "runtime_gc"},
	{"findObject", "runtime_gc"},
	{"typePointers", "runtime_gc"},
	{"heapBits", "runtime_gc"},
	{"wbBuf", "runtime_gc"},
	{"WriteBarrier", "runtime_gc"},
	{"spanOf", "runtime_gc"},
}

// layerOf maps one pprof function name to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "zng/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if simLayers[pkg] {
			return pkg
		}
		return "other"
	}
	// Runtime functions, plus the package-less assembly stubs
	// (gcWriteBarrier) and pprof's pseudo-frames (runtime._GC).
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, ".") {
		for _, r := range runtimeRules {
			if strings.Contains(fn, r.match) {
				return r.layer
			}
		}
	}
	return "other"
}
