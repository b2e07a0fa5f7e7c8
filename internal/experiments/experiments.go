// Package experiments regenerates every table and figure of the ZnG
// paper's evaluation (Section V) plus the ablations docs/DESIGN.md
// calls out. Every driver is a func(Options) (*stats.Table, error)
// whose table, holding the same rows or series the paper plots, is
// its only output; the registry (registry.go) binds each figure id to
// its driver, paper claim and shape check, and the generated
// docs/EXPERIMENTS.md, which this package composes with
// docs/DESIGN.md (docs.go), records paper-vs-measured for each.
//
// Absolute numbers are not expected to match the authors' testbed —
// the substrate here is a from-scratch simulator with synthetic traces
// — but the shapes (who wins, by roughly what factor, where the
// crossovers sit) are asserted on each table by its registered check.
package experiments

import (
	"runtime"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/simsvc"
	"zng/internal/workload"
)

// Options parameterize a run.
type Options struct {
	// Scale multiplies the Table II trace budgets. The figure defaults
	// use 2.0 so working sets clearly exceed the 24 MB STT-MRAM L2;
	// tests and benchmarks use small fractions.
	Scale float64
	Cfg   config.Config
	// Mixes lists the workload scenarios the per-workload figures
	// iterate; the figure defaults use the twelve paper pairs. Figures
	// name them in a campaign.Spec, so each must resolve by its Name:
	// a registered scenario, or an ad-hoc mix named by its ID.
	Mixes []workload.Mix
	// Workers bounds simulation parallelism (0 = NumCPU). Individual
	// simulations stay single-threaded and deterministic.
	Workers int
	// Runner answers simulation requests; required. DefaultOptions
	// injects a fresh memory-only simsvc.Service, so every Options
	// lineage (the value and all copies derived from it) simulates each
	// cell once and independent lineages cannot observe each other.
	// zngfig and zngsweep inject one service of their own, backed by
	// the persistent store when -cache names one.
	Runner campaign.Runner
}

// DefaultOptions returns full-fidelity settings with a fresh
// memory-only simulation service. The service starts no goroutine
// until a cell needs simulating.
func DefaultOptions() Options {
	return Options{Scale: workload.DefaultScale, Cfg: config.Default(), Mixes: workload.PaperPairs(), Runner: simsvc.New(simsvc.Config{})}
}

// TestOptions returns a fast, scaled-down variant for tests and
// benchmarks: traces shrink and the L2s shrink with them (preserving
// the 4x STT:SRAM capacity ratio of Table I) so cache pressure stays
// realistic.
func TestOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.12
	o.Cfg.GPU.SMs = 8
	o.Cfg.L2SRAM.Sets /= 8
	o.Cfg.L2STT.Sets /= 8
	o.Mixes = workload.PaperPairs()[:3]
	return o
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// runGrid runs spec's cells through o.Runner on a campaign.Executor
// and returns them in expansion order: overrides, then scales,
// scenarios and platforms. A spec without scales runs at o.Scale. A
// figure needs its whole grid, so one failed cell fails the call,
// naming the cell.
func runGrid(o Options, spec campaign.Spec) ([]campaign.CellResult, error) {
	if len(spec.Scales) == 0 {
		spec.Scales = []float64{o.Scale}
	}
	out, err := campaign.Executor{Runner: o.Runner, Workers: o.workers()}.Execute(spec, o.Cfg)
	if err != nil {
		return nil, err
	}
	return out.Cells, out.Err()
}

// runMixes runs every kind on every scenario of o.Mixes and folds the
// results by kind and scenario name, as the per-workload tables read
// them.
func runMixes(o Options, kinds ...platform.Kind) (map[platform.Kind]map[string]platform.Result, error) {
	spec := campaign.Spec{Platforms: kindNames(kinds...)}
	for _, m := range o.Mixes {
		spec.Scenarios = append(spec.Scenarios, m.Name)
	}
	cells, err := runGrid(o, spec)
	if err != nil {
		return nil, err
	}
	res := make(map[platform.Kind]map[string]platform.Result, len(kinds))
	for _, k := range kinds {
		res[k] = make(map[string]platform.Result, len(o.Mixes))
	}
	for _, c := range cells {
		res[c.Cell.Kind][c.Cell.Mix.Name] = c.Result
	}
	return res, nil
}

// kindNames spells kinds as a campaign.Spec lists its platforms.
func kindNames(kinds ...platform.Kind) []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}
