// Package experiments regenerates every table and figure of the ZnG
// paper's evaluation (Section V) plus the ablations docs/DESIGN.md
// calls out. Each driver returns a stats.Table holding the same rows
// or series the paper plots; the registry (registry.go) binds each
// figure id to its driver, paper claim and shape check, and the
// generated docs/EXPERIMENTS.md records paper-vs-measured for each.
//
// Absolute numbers are not expected to match the authors' testbed —
// the substrate here is a from-scratch simulator with synthetic traces
// — but the shapes (who wins, by roughly what factor, where the
// crossovers sit) are asserted by this package's tests.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/platform"
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
	// iterate; the figure defaults use the twelve paper pairs.
	Mixes []workload.Mix
	// Workers bounds simulation parallelism (0 = NumCPU). Individual
	// simulations stay single-threaded and deterministic.
	Workers int
	// Runner answers simulation requests; required. DefaultOptions
	// injects a fresh in-memory Memo, so every Options lineage (the
	// value and all copies derived from it) shares one memo and
	// independent lineages cannot observe each other; the CLIs and
	// the zngd daemon inject the persistent simsvc scheduler instead.
	Runner campaign.Runner
}

// DefaultScale is the figure-quality trace scale.
const DefaultScale = 2.0

// DefaultOptions returns full-fidelity settings with a fresh
// in-memory simulation memo.
func DefaultOptions() Options {
	return Options{Scale: DefaultScale, Cfg: config.Default(), Mixes: workload.PaperPairs(), Runner: NewMemo()}
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

type cell struct {
	kind platform.Kind
	mix  workload.Mix
}

// runMatrix simulates every (kind, mix) combination in parallel and
// returns results keyed by kind and mix name. Cells go through the
// Options' runner (cache.go), so a cell another figure already
// simulated under the same runner is free and concurrent duplicates
// coalesce. On the first
// failing cell the matrix stops spawning new work: already-running
// simulations drain (they are not interruptible mid-run and their
// results stay valid in the memo), but no fresh cell starts once
// firstErr is set.
func runMatrix(o Options, kinds []platform.Kind) (map[platform.Kind]map[string]platform.Result, error) {
	var cells []cell
	for _, k := range kinds {
		for _, m := range o.Mixes {
			cells = append(cells, cell{k, m})
		}
	}
	out := make(map[platform.Kind]map[string]platform.Result)
	for _, k := range kinds {
		out[k] = make(map[string]platform.Result)
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	failed := make(chan struct{})
	sem := make(chan struct{}, o.workers())
spawn:
	for _, c := range cells {
		c := c
		select {
		case <-failed:
			break spawn
		case sem <- struct{}{}:
		}
		// A select with both cases ready picks randomly; re-check under
		// the lock so that once firstErr is set no further cell ever
		// starts.
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			<-sem
			break spawn
		}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			r, err := o.Runner.Run(c.kind, c.mix, o.Scale, o.Cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%v on %s: %w", c.kind, c.mix.Name, err)
					close(failed)
				}
				return
			}
			out[c.kind][c.mix.Name] = r
		}()
	}
	wg.Wait()
	return out, firstErr
}

// runOne simulates a single registered scenario (memoized like matrix
// cells).
func runOne(o Options, k platform.Kind, mixName string) (platform.Result, error) {
	m, err := workload.MixByName(mixName)
	if err != nil {
		return platform.Result{}, err
	}
	return o.Runner.Run(k, m, o.Scale, o.Cfg)
}
