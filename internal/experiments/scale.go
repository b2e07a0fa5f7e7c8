package experiments

import (
	"fmt"

	"zng/internal/campaign"
	"zng/internal/platform"
	"zng/internal/stats"
)

// ScaleSweepBase is the 1x trace scale of the scale-sweep ladder; the
// root BenchmarkScaleSweep times its top rung, so the figure and the
// benchmark describe the same simulations.
const ScaleSweepBase = 0.02

// ScaleSweepFactors are the ladder's multipliers over ScaleSweepBase.
var ScaleSweepFactors = []int{1, 4, 16, 64}

// ScaleSweep measures how simulation throughput and device-state
// memory grow with trace scale for a ZnG/HybridGPU pair. It reports
// only deterministic quantities — simulated instruction throughput
// and exact translation-state byte accounting — so the figure can
// render into docs; host wall-clock throughput and peak heap live in
// the root BenchmarkScaleSweep, which times the same top rung.
//
// The sweep runs an absolute scale ladder (it ignores Options.Scale):
// relative rungs under the docs regime's default scale would collapse
// the ladder into a few hundred pages and show nothing about growth.
func ScaleSweep(o Options) (*stats.Table, error) {
	spec := campaign.Spec{Platforms: kindNames(platform.ZnG, platform.HybridGPU), Scenarios: []string{"bfs1-gaus"}}
	for _, f := range ScaleSweepFactors {
		spec.Scales = append(spec.Scales, ScaleSweepBase*float64(f))
	}
	cells, err := runGrid(o, spec)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Scale sweep: throughput and translation state vs trace scale (bfs1-gaus)",
		"scale", "insts (M)", "ZnG Minst/s (sim)", "HybridGPU Minst/s (sim)",
		"ZnG state (KiB)", "HybridGPU state (KiB)", "ZnG state (B/page)")
	for i, f := range ScaleSweepFactors {
		zng, hyb := cells[2*i].Result, cells[2*i+1].Result
		zngState := zng.Extra["translation_state_bytes"]
		t.AddRow(fmt.Sprintf("%dx", f),
			float64(zng.Insts)/1e6,
			zng.SimInstsPerSec()/1e6,
			hyb.SimInstsPerSec()/1e6,
			zngState/1024,
			hyb.Extra["translation_state_bytes"]/1024,
			zngState/zng.Extra["mapped_pages"])
	}
	return t, nil
}

// checkScaleSweep asserts the ladder's qualitative shape: work grows
// with scale while translation state grows sublinearly — the dense
// tables amortize, so bytes per mapped page fall as traces grow.
func checkScaleSweep(t *stats.Table) error {
	if t.Rows() != len(ScaleSweepFactors) {
		return fmt.Errorf("rows = %d, want the %d-rung scale ladder", t.Rows(), len(ScaleSweepFactors))
	}
	col := func(name string) ([]float64, error) {
		c, err := colByName(t, name)
		if err != nil {
			return nil, err
		}
		out := make([]float64, t.Rows())
		for r := range out {
			if out[r], err = cellFloat(t, r, c); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	insts, err := col("insts (M)")
	if err != nil {
		return err
	}
	for r := 1; r < len(insts); r++ {
		if insts[r] <= insts[r-1] {
			return fmt.Errorf("insts not increasing with scale: row %d has %v after %v",
				r, insts[r], insts[r-1])
		}
	}
	for _, name := range []string{"ZnG state (KiB)", "HybridGPU state (KiB)"} {
		state, err := col(name)
		if err != nil {
			return err
		}
		for r := 1; r < len(state); r++ {
			if state[r] < state[r-1] {
				return fmt.Errorf("%s shrank between rungs %d and %d (%v -> %v)",
					name, r-1, r, state[r-1], state[r])
			}
		}
		last := len(state) - 1
		if state[0] <= 0 || state[last]/state[0] >= insts[last]/insts[0] {
			return fmt.Errorf("%s grew %vx over a %vx work increase: translation state must grow sublinearly",
				name, state[last]/state[0], insts[last]/insts[0])
		}
	}
	perPage, err := col("ZnG state (B/page)")
	if err != nil {
		return err
	}
	if last := len(perPage) - 1; perPage[last] >= perPage[0] {
		return fmt.Errorf("state bytes per mapped page did not fall (1x %v, top rung %v): dense tables are not amortizing",
			perPage[0], perPage[last])
	}
	return nil
}
