package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workloadNames is every workload, in the order the docs list them.
var workloadNames = []string{"zng-read", "zngbase-write", "hybrid-read", "serve-sweep"}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	quick    bool
	zngd     string // zngd binary, for serve-sweep
	work     string // scratch directory for this run
}

// outcome accumulates one run's samples and failures.
type outcome struct {
	samples           samples
	attempted, failed int
	errors            []string
	// digest is the SHA-256 of report.EncodeResult shared by a sim
	// run's samples.
	digest string
}

func (out *outcome) fail(err error) {
	out.failed++
	out.errors = append(out.errors, err.Error())
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "cell" {
		os.Exit(cellMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("zngbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "input seed; 0 reproduces the documented cells")
	seconds := fs.Int("seconds", 20, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	quick := fs.Bool("quick", false, "smoke mode: scale 0.05, 2 cells, 1 s of load")
	zngd := fs.String("zngd", "", "zngd binary for serve-sweep")
	work := fs.String("work", "", "directory for run files (default: a new temporary directory)")
	outFile := fs.String("out", "", "also write the full result document, with host provenance and spreads, here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, quick: *quick, zngd: *zngd}
	_, isSim := simWorkloads[o.workload]
	switch {
	case !isSim && o.workload != "serve-sweep":
		fmt.Fprintf(os.Stderr, "zngbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	case *seconds < 1 || *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "zngbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	var err error
	if o.work, err = os.MkdirTemp(*work, "zngbench-"); err != nil {
		fmt.Fprintln(os.Stderr, "zngbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out := &outcome{samples: samples{}}
	if isSim {
		err = runSim(ctx, o, simWorkloads[o.workload], out)
	} else {
		err = runServe(ctx, o, out)
	}
	if err != nil {
		out.fail(err)
	}

	// The result line carries the mode's catalog; the report and -out
	// also show whatever the run measured of the other one.
	defs, other := endToEnd, perLayer
	if o.trace {
		defs, other = perLayer, endToEnd
	}
	doc := newDocument(o, out, summarize(defs, out.samples))
	for name, s := range summarize(other, out.samples) {
		if s.N > 0 {
			doc.Also[name] = s
		}
	}
	doc.print(os.Stdout, defs, other)
	if *outFile != "" {
		if err := doc.write(*outFile); err != nil {
			fmt.Fprintln(os.Stderr, "zngbench:", err)
			return 1
		}
	}
	if !doc.Correct {
		return 1
	}
	return 0
}

// host is the provenance stamped on every result: numbers from
// different hosts or builds must never be compared silently.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Revision   string `json:"revision"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Revision: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Revision += "+modified"
		}
	}
	return h
}

// document is one run's full result, as -out writes it.
type document struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Quick     bool               `json:"quick"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Also holds metrics of the other catalog that the run measured.
	Also map[string]summary `json:"also_measured,omitempty"`
}

func newDocument(o options, out *outcome, metrics map[string]summary) *document {
	d := &document{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds.Seconds(),
		Quick: o.quick, Host: hostInfo(), Attempted: out.attempted, Failed: out.failed,
		Digest: out.digest, Errors: out.errors, Metrics: metrics, Also: map[string]summary{}}
	d.Correct = out.failed == 0 && out.attempted > 0 && len(out.errors) == 0
	if !o.trace {
		// Every end-to-end metric is measured on every workload.
		for _, def := range endToEnd {
			if metrics[def.name].N == 0 {
				d.Correct = false
				d.Errors = append(d.Errors, def.name+" has no samples")
			}
		}
	}
	return d
}

// print writes the human-readable report, then the one-line result
// the comparison tooling parses, last.
func (d *document) print(w io.Writer, defs, other []metricDef) {
	fmt.Fprintf(w, "zngbench %s  seed %d  trace %v  seconds %g  quick %v\n", d.Workload, d.Seed, d.Trace, d.Seconds, d.Quick)
	fmt.Fprintf(w, "host: %s  nproc %d  GOMAXPROCS %d  %s %s  rev %s\n",
		d.Host.CPU, d.Host.NProc, d.Host.GOMAXPROCS, d.Host.Go, d.Host.OSArch, d.Host.Revision)
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", d.Attempted, d.Failed)
	if d.Digest != "" {
		fmt.Fprintf(w, "result digest: %s\n", d.Digest)
	}
	for _, e := range d.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	row := func(name string, s summary) {
		fmt.Fprintf(w, "%-30s %16.6g %-8s %6d %16.6g %16.6g\n", name, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
	fmt.Fprintf(w, "%-30s %16s %-8s %6s %16s %16s\n", "metric", "median", "unit", "n", "q1", "q3")
	for _, def := range defs {
		row(def.name, d.Metrics[def.name])
	}
	if len(d.Also) > 0 {
		fmt.Fprintln(w, "also measured, not in the result line:")
		for _, def := range other {
			if s, ok := d.Also[def.name]; ok {
				row(def.name, s)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, map[string]value{}}
	for name, s := range d.Metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

func (d *document) write(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
