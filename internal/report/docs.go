package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"zng/internal/experiments"
	"zng/internal/stats"
)

// Formats lists the supported rendering formats — the single source
// of truth for Render and for CLI flag validation.
func Formats() []string { return []string{"md", "csv", "json"} }

// Render formats a table in the named format: "md", "csv" or "json".
func Render(t *stats.Table, format string) ([]byte, error) {
	switch format {
	case "md":
		return []byte(Markdown(t)), nil
	case "csv":
		return []byte(CSV(t)), nil
	case "json":
		return JSON(t), nil
	}
	return nil, fmt.Errorf("unknown format %q (valid: %s)", format, strings.Join(Formats(), ", "))
}

// generatedBanner marks both docs as build artifacts. CI regenerates
// them and fails on any diff, so hand edits cannot survive.
const generatedBanner = "<!-- GENERATED FILE — do not edit by hand.\n" +
	"     Regenerate with `go run ./cmd/zngfig -fig docs -out docs`;\n" +
	"     the CI docs-freshness job fails if this file drifts from the\n" +
	"     simulator's output. -->"

// DocStats summarizes the shape-check verdicts of one Experiments
// composition, so callers (zngfig, CI) can fail loudly on a shape
// regression instead of silently committing a FAIL into the docs.
type DocStats struct {
	Passed  int
	Failed  int
	Checked int
}

// Experiments runs every registered figure through the memoized
// simulation cache and composes docs/EXPERIMENTS.md: for each figure,
// the paper's claim, the qualitative shape this reproduction asserts,
// the shape check's verdict, and the measured table itself.
func Experiments(o experiments.Options) ([]byte, DocStats, error) {
	reg := experiments.Registry()
	type rendered struct {
		fig     experiments.Figure
		table   *stats.Table
		verdict string
	}
	all := make([]rendered, 0, len(reg))
	var ds DocStats
	for _, f := range reg {
		t, err := f.Run(o)
		if err != nil {
			return nil, ds, fmt.Errorf("%s: %w", f.ID, err)
		}
		// A nil Check renders as n/a and stays out of the tally, so
		// the headline count and the per-figure verdicts can never
		// disagree.
		verdict := f.Verdict(t)
		if f.Check != nil {
			ds.Checked++
			if verdict == experiments.VerdictPass {
				ds.Passed++
			} else {
				ds.Failed++
			}
		}
		all = append(all, rendered{f, t, verdict})
	}

	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString(generatedBanner)
	b.WriteString("\n\n")
	fmt.Fprintf(&b, `Every registered table, figure and ablation of the ZnG reproduction,
regenerated from the simulator: the paper's claim, the qualitative
shape this codebase asserts about its own measurement, the shape
check's verdict, and the measured series. Simulated figures ran at
trace scale %s under the docs regime (%d SMs, L2s scaled down with the
traces so cache pressure stays realistic — see
`+"`experiments.DocsOptions`"+`) over %d co-run workloads; scale-free
figures ignore the trace scale and the workloads and read the same
configuration. Absolute numbers are not comparable to the authors'
MacSim testbed — the substrate is a from-scratch simulator with
synthetic traces — the shapes are the reproduction target.

Shape checks passing: **%d of %d**.

`, stats.FormatFloat(o.Scale), o.Cfg.GPU.SMs, len(o.Mixes), ds.Passed, ds.Checked)

	b.WriteString("## Summary\n\n")
	sum := stats.NewTable("", "id", "paper ref", "shape check", "claim")
	for _, r := range all {
		v := r.verdict
		if i := strings.Index(v, " — "); i > 0 {
			v = v[:i] // the full reason appears in the figure's section
		}
		sum.AddRow("`"+r.fig.ID+"`", r.fig.Ref, v, r.fig.Claim)
	}
	b.WriteString(markdownTable(sum))
	b.WriteByte('\n')

	for _, r := range all {
		fmt.Fprintf(&b, "## %s — %s (`%s`)\n\n", r.fig.Ref, r.fig.Title, r.fig.ID)
		fmt.Fprintf(&b, "**Paper claim.** %s\n\n", r.fig.Claim)
		fmt.Fprintf(&b, "**Asserted shape.** %s\n\n", r.fig.Shape)
		fmt.Fprintf(&b, "**Verdict: %s**", r.verdict)
		if r.fig.ScaleFree {
			b.WriteString(" _(scale-free)_")
		}
		b.WriteString("\n\n")
		b.WriteString(markdownTable(r.table))
		b.WriteByte('\n')
	}
	return []byte(b.String()), ds, nil
}

// Design composes docs/DESIGN.md: the authored architecture prose of
// design.go plus the figure/ablation inventory generated from the
// registry.
func Design() []byte {
	var b strings.Builder
	b.WriteString("# DESIGN — simulator architecture\n\n")
	b.WriteString(generatedBanner)
	b.WriteString("\n\n")
	b.WriteString(designProse)
	b.WriteString("\n## Figure and ablation inventory (generated)\n\n")
	b.WriteString("One registry entry per evaluated table/figure (`experiments.Registry`);\n")
	b.WriteString("`zngfig -fig <id>` regenerates any of them, and\n")
	b.WriteString("[EXPERIMENTS.md](EXPERIMENTS.md) records paper-vs-measured for each.\n\n")
	inv := stats.NewTable("", "id", "driver", "paper ref", "title", "inputs")
	for _, f := range experiments.Registry() {
		inputs := "traces at -scale"
		if f.ScaleFree {
			inputs = "Table I config only"
		}
		inv.AddRow("`"+f.ID+"`", "`experiments."+f.Driver+"`", f.Ref, f.Title, inputs)
	}
	b.WriteString(markdownTable(inv))
	return []byte(b.String())
}

// WriteDocs regenerates both generated documents under dir (creating
// it if needed): EXPERIMENTS.md from a full registry run under o, and
// DESIGN.md. The returned DocStats lets the caller turn FAIL verdicts
// into a non-zero exit — the files are still written first, so a
// failing reproduction is recorded honestly while CI goes red.
func WriteDocs(dir string, o experiments.Options) (DocStats, error) {
	exp, ds, err := Experiments(o)
	if err != nil {
		return ds, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ds, err
	}
	if err := os.WriteFile(filepath.Join(dir, "EXPERIMENTS.md"), exp, 0o644); err != nil {
		return ds, err
	}
	return ds, os.WriteFile(filepath.Join(dir, "DESIGN.md"), Design(), 0o644)
}
