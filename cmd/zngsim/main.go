// Command zngsim runs one platform on one workload scenario and prints
// the full measurement set — the low-level tool behind zngfig.
//
// Usage:
//
//	zngsim -platform ZnG -mix betw-back -scale 2.0
//	zngsim -platform ZnG -mix consol-4
//	zngsim -apps bfs1,gaus,pr -platform HybridGPU
//	zngsim -platform ZnG-base -mix betw-back -cpuprofile zng.prof
//	zngsim -mix betw-back -cache ~/.zng-cache
//	zngsim -list
//
// -mix names a registered scenario (workload.Scenarios: the twelve
// paper pairs, solo-<app> runs, consol-1..4 consolidation mixes,
// read/write stress mixes and the new-family co-runs); -apps composes
// an ad-hoc mix from a comma-separated application list instead, with
// optional per-app weights ("oltp*2,bfs1"). -list prints both
// vocabularies, derived from the same registries the flags resolve
// against, so the help text can never drift from the code.
//
// -cache routes the run through the persistent content-addressed
// result store shared with zngfig and the zngd daemon: a cell any of
// them already computed is served from disk, and a fresh simulation is
// written through for the next caller.
//
// -cpuprofile captures a pprof profile of the simulation itself; this
// is the loop used to find the simulator's hot paths (the rand-seeding
// and event-queue costs this codebase has since eliminated).
// -memprofile writes an allocation profile after the run — the loop
// used to find translation-state memory hogs (the map-backed FTL and
// TLB state this codebase has since replaced with dense tables).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/simsvc"
	"zng/internal/store"
	"zng/internal/workload"
)

func main() {
	var (
		plat     = flag.String("platform", "ZnG", "platform: "+strings.Join(platform.KindNames(), ", "))
		mixName  = flag.String("mix", "betw-back", "workload scenario name (see -list)")
		apps     = flag.String("apps", "", "ad-hoc mix: comma-separated applications, e.g. bfs1,gaus,pr (overrides -mix)")
		scale    = flag.Float64("scale", workload.DefaultScale, "trace scale")
		cacheDir = flag.String("cache", "", "read-through/write-through persistent result store directory")
		list     = flag.Bool("list", false, "list platforms, applications and scenarios")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprof  = flag.String("memprofile", "", "write an allocation profile taken after the simulation to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("platforms:", strings.Join(platform.KindNames(), " "))
		fmt.Print("apps:     ")
		for _, s := range workload.AllSpecs() {
			fmt.Print(" ", s.Name)
		}
		fmt.Println()
		fmt.Println("scenarios:")
		for _, m := range workload.Scenarios() {
			fmt.Printf("  %-16s %s\n", m.Name, m.ID())
		}
		return
	}

	// Reject NaN and ±Inf along with non-positives: a non-finite scale
	// would otherwise reach the store's key hasher, which cannot encode
	// it.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fatal(fmt.Errorf("scale must be positive and finite, got %v", *scale))
	}
	kind, err := platform.KindByName(*plat)
	if err != nil {
		fatal(err)
	}
	var mix workload.Mix
	if *apps != "" {
		mix, err = workload.ParseApps(*apps)
	} else {
		mix, err = workload.MixByName(*mixName)
	}
	if err != nil {
		fatal(err)
	}
	if err := mix.CheckScale(*scale); err != nil {
		fatal(err)
	}
	// run produces the single cell: directly, or — with -cache —
	// through the store-backed service (one worker; the service is
	// here for its read-through/write-through path, the same code path
	// zngfig and zngd run).
	run := func() (platform.Result, error) {
		return platform.RunMix(kind, mix, *scale, config.Default())
	}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		run = func() (platform.Result, error) {
			svc := simsvc.New(simsvc.Config{Store: st, Workers: 1})
			defer svc.Close()
			r, err := svc.Run(kind, mix, *scale, config.Default())
			if err == nil {
				// Whether the store served the cell is host state, so it
				// goes to stderr: a rerun's stdout must match the run's.
				stats := svc.Stats()
				fmt.Fprintf(os.Stderr, "cache:      %s (sims %d, disk hits %d)\n", st.Dir(), stats.Sims, stats.DiskHits)
			}
			return r, err
		}
	}
	// The profile is stopped explicitly (not deferred): fatal exits via
	// os.Exit, and a failing run — a runaway simulation hitting the
	// event cap — is exactly the one worth profiling, so the file must
	// be flushed before the error path.
	stopProfile := func() {}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r, err := run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	stopProfile()
	if err != nil {
		fatal(err)
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle live heap so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	fmt.Printf("platform:   %s\n", r.Kind)
	fmt.Printf("workload:   %s = %s (scale %.2f)\n", mix.Name, mix.ID(), *scale)
	fmt.Printf("IPC:        %.4f\n", r.IPC)
	fmt.Printf("cycles:     %d (%.3f ms simulated)\n", r.Cycles, config.TicksToNs(r.Cycles)/1e6)
	fmt.Printf("insts:      %d\n", r.Insts)
	// Host-side diagnostics go to stderr: stdout is the deterministic
	// measurement set ("run twice and diff" must stay a valid oracle).
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Fprintf(os.Stderr, "host rate:  %.0f insts/sec (%.2fs wall)\n", float64(r.Insts)/secs, secs)
	}
	fmt.Fprintf(os.Stderr, "peak RSS:   %s\n", peakRSS())
	fmt.Fprintf(os.Stderr, "allocs:     %d\n", after.Mallocs-before.Mallocs)
	fmt.Printf("L2 hit:     %.3f\n", r.L2HitRate)
	fmt.Printf("TLB hit:    %.3f\n", r.TLBHitRate)
	if r.FlashArrayGBps() > 0 {
		fmt.Printf("flash BW:   %.2f GB/s read, %.2f GB/s write\n", r.FlashReadGBps, r.FlashWriteGBps)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-18s %.6g\n", k, r.Extra[k])
	}
}

// peakRSS reports the process's peak resident set, VmHWM in
// /proc/self/status (what cmd/zngbench reports as peak_rss_mib), or
// why it is unavailable. The Go heap's HeapSys would not do: it reads
// the same few MiB for every platform at the scales zngsim runs.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unavailable (" + err.Error() + ")"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return "unavailable (" + err.Error() + ")"
			}
			return fmt.Sprintf("%.1f MiB", kib/1024)
		}
	}
	return "unavailable (no VmHWM in /proc/self/status)"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zngsim:", err)
	os.Exit(1)
}
