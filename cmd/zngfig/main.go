// Command zngfig regenerates the ZnG paper's tables and figures.
//
// Usage:
//
//	zngfig -fig fig10 [-scale 2.0] [-mixes betw-back,pr-gaus] [-workers 8]
//	zngfig -fig all -out out -format csv
//	zngfig -fig docs -out docs
//	zngfig -fig all [-v]
//
// Figure ids come from the experiments registry (experiments.Registry);
// run with an unknown id to get the current list. Two meta-targets
// exist: "all" regenerates every registered figure, and "docs"
// regenerates the repository's generated documents docs/EXPERIMENTS.md
// and docs/DESIGN.md at the canonical docs scale (CI diffs them, so
// their output is deterministic).
//
// -format selects md, csv or json rendering; -out writes one file per
// figure (<id>.<format>) into a directory instead of printing. Without
// either, figures print as plain text tables.
//
// The figure drivers share one simsvc service per invocation: any
// (kind, mix, scale, config) cell is simulated once no matter how
// many figures need it, which is what makes `-fig all` tractable at
// full scale. With -cache DIR the service is backed by the persistent
// content-addressed store shared with zngsim and the zngd daemon, so
// cells survive across invocations too. -v reports per-figure
// wall-clock and the dedup ratio (memory vs disk hits).
//
// After each figure's table, stderr carries its shape-check verdict
// (PASS, or FAIL with the check's error), as docs/EXPERIMENTS.md
// reports it. Only -fig docs turns a FAIL into a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"zng/internal/experiments"
	"zng/internal/report"
	"zng/internal/simsvc"
	"zng/internal/stats"
	"zng/internal/store"
	"zng/internal/workload"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure id to regenerate, or all, or docs")
		scale    = flag.Float64("scale", workload.DefaultScale, "trace scale (1.0 = Table II budgets)")
		mixesCS  = flag.String("mixes", "", "comma-separated workload scenarios (default: the 12 paper pairs)")
		workers  = flag.Int("workers", 0, "parallel simulations (0 = NumCPU)")
		outDir   = flag.String("out", "", "write figures to this directory instead of stdout")
		format   = flag.String("format", "", "rendering: md, csv or json (default: text to stdout, md with -out)")
		cacheDir = flag.String("cache", "", "read-through/write-through persistent result store directory")
		verbose  = flag.Bool("v", false, "report per-figure wall-clock and simulation-runner stats")
	)
	flag.Parse()

	// The figure suite runs through one simsvc service: memory-only, or
	// with -cache backed by the persistent store zngsim and zngd share.
	var st *store.Store
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			fatal(err)
		}
	}
	svc := simsvc.New(simsvc.Config{Store: st, Workers: *workers})
	defer svc.Close()

	// Reject NaN and ±Inf along with non-positives: a non-finite scale
	// would otherwise reach the store's key hasher, which cannot encode
	// it.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fatal(fmt.Errorf("scale must be positive and finite, got %v", *scale))
	}
	// Every figure runs registered scenarios at the scale.
	for _, m := range workload.Scenarios() {
		if err := m.CheckScale(*scale); err != nil {
			fatal(err)
		}
	}
	// Reject a bad format before any simulation runs: at full scale a
	// figure costs minutes, and report.Render would only error after.
	if *format != "" && !slices.Contains(report.Formats(), *format) {
		fatal(fmt.Errorf("unknown format %q (valid: %s)", *format, strings.Join(report.Formats(), ", ")))
	}

	if *fig == "docs" {
		// The docs target always renders Markdown documents; reject a
		// contradictory -format instead of silently ignoring it.
		if *format != "" && *format != "md" {
			fatal(fmt.Errorf("-fig docs renders Markdown documents; -format %s is not supported", *format))
		}
		// Docs default to the canonical DocsOptions regime so
		// `zngfig -fig docs` always reproduces the committed files;
		// explicit flags still override for ad-hoc larger runs.
		o := experiments.DocsOptions()
		o.Runner = svc
		applyExplicitFlags(&o, *scale, *mixesCS, *workers)
		dir := *outDir
		if dir == "" {
			dir = "docs"
			// Warn when an override would clobber the canonical
			// committed docs with non-canonical content. The scenario
			// vocabulary is much larger than the canonical 12-pair set,
			// so compare the actual mix identities, not just the count.
			if canonical := experiments.DocsOptions(); o.Scale != canonical.Scale || !sameMixes(o.Mixes, canonical.Mixes) {
				fmt.Fprintln(os.Stderr, "zngfig: warning: non-canonical -scale/-mixes writing into docs/; the CI freshness job will flag the drift (use -out DIR for ad-hoc runs)")
			}
		}
		start := time.Now()
		ds, err := experiments.WriteDocs(dir, o)
		if err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "zngfig: docs -> %s in %v (%d/%d shape checks pass)\n",
				dir, time.Since(start).Round(time.Millisecond), ds.Passed, ds.Checked)
			reportRunner(svc)
		}
		// The docs record FAIL verdicts honestly, but the run itself
		// must go red so a shape regression cannot land with green CI.
		if ds.Failed > 0 {
			fatal(fmt.Errorf("%d of %d shape checks FAILED — see %s/EXPERIMENTS.md", ds.Failed, ds.Checked, dir))
		}
		return
	}

	o := experiments.DefaultOptions()
	o.Runner = svc
	applyExplicitFlags(&o, *scale, *mixesCS, *workers)

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.FigureIDs()
	}
	// Several JSON documents on one stdout would not parse; collect
	// the tables and emit a single array instead.
	collectJSON := *outDir == "" && *format == "json" && len(ids) > 1
	var collected []*stats.Table
	for _, id := range ids {
		f, err := experiments.FigureByID(id)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		t, err := f.Run(o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if collectJSON {
			collected = append(collected, t)
		} else if err := emit(t, id, *outDir, *format); err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Fprintf(os.Stderr, "zngfig: %s: %s\n", id, f.Verdict(t))
		if *verbose {
			fmt.Fprintf(os.Stderr, "zngfig: %s in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if collectJSON {
		if _, err := os.Stdout.Write(report.JSONAll(collected)); err != nil {
			fatal(err)
		}
	}
	if *verbose {
		reportRunner(svc)
	}
}

// applyExplicitFlags folds only the flags the user actually set into
// o, so meta-targets with their own defaults (docs) are not clobbered
// by flag package defaults.
func applyExplicitFlags(o *experiments.Options, scale float64, mixesCS string, workers int) {
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			o.Scale = scale
		case "workers":
			o.Workers = workers
		case "mixes":
			if mixesCS == "" {
				return // explicit -mixes "" keeps the default set
			}
			o.Mixes = nil
			for _, name := range strings.Split(mixesCS, ",") {
				m, err := workload.MixByName(strings.TrimSpace(name))
				if err != nil {
					fatal(err)
				}
				o.Mixes = append(o.Mixes, m)
			}
		}
	})
}

// sameMixes reports whether two scenario lists are identical in order,
// names and composition.
func sameMixes(a, b []workload.Mix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].ID() != b[i].ID() {
			return false
		}
	}
	return true
}

// emit delivers one figure's table: to stdout in text (default) or
// the requested format, or into outDir as <id>.<format>.
func emit(t *stats.Table, id, outDir, format string) error {
	if outDir == "" {
		if format == "" {
			fmt.Println(t)
			return nil
		}
		out, err := report.Render(t, format)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if format == "" {
		format = "md"
	}
	out, err := report.Render(t, format)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, id+"."+format), out, 0o644)
}

// reportRunner prints the suite's dedup ratio: how many cells
// actually simulated, and how the rest were served (memory vs the
// persistent store vs coalesced onto a flight).
func reportRunner(svc *simsvc.Service) {
	st := svc.Stats()
	fmt.Fprintf(os.Stderr, "zngfig: %d unique simulations, %d memory hits, %d disk hits, %d coalesced\n",
		st.Sims, st.MemoryHits, st.DiskHits, st.Coalesced)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zngfig:", err)
	os.Exit(1)
}
