package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/workload"
)

// TestMatrixMatchesSerialRuns confirms that the executor's fan-out does
// not perturb results: each cell of a matrix equals an independent
// platform.RunMix simulation (simulations are single-goroutine; only
// the executor fans out).
func TestMatrixMatchesSerialRuns(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:2]
	o.Workers = 4
	kinds := []platform.Kind{platform.Optane, platform.ZnG}
	res, err := runMixes(o, kinds...)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		for _, m := range o.Mixes {
			serial, err := platform.RunMix(k, m, o.Scale, o.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := res[k][m.Name]
			if got.IPC != serial.IPC || got.Cycles != serial.Cycles || got.Insts != serial.Insts {
				t.Errorf("%v/%s: matrix %+v != serial %+v", k, m.Name, got.IPC, serial.IPC)
			}
		}
	}
}

// TestGridRejectsUnknownScenario: a grid naming an unknown scenario
// fails at expansion, before any cell reaches the runner.
func TestGridRejectsUnknownScenario(t *testing.T) {
	o := TestOptions()
	_, err := runGrid(o, campaign.Spec{Platforms: kindNames(platform.ZnG), Scenarios: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("err = %v, want an unknown-scenario error naming nope", err)
	}
	if st := memoStats(t, o); st.Sims != 0 {
		t.Errorf("rejected grid simulated %d cells, want 0", st.Sims)
	}
}

// failingRunner answers every cell with IPC 1 except the cells it
// selects, which error.
type failingRunner func(kind platform.Kind, mix workload.Mix, cfg config.Config) bool

func (fails failingRunner) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	if fails(kind, mix, cfg) {
		return platform.Result{}, errors.New("injected failure")
	}
	return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
}

// planeRunner answers every cell with IPC 1 and the plane counts it
// holds.
type planeRunner []uint64

func (writes planeRunner) Run(kind platform.Kind, mix workload.Mix, _ float64, _ config.Config) (platform.Result, error) {
	return platform.Result{Kind: kind, Workload: mix.ID(), IPC: 1, PlaneWrites: writes}, nil
}

// TestFig8bReadsMissingPlanesAsZeros: a ZnG-base cell that never
// programmed carries no plane counts, and Fig8b reads it as it reads
// an all-zero array: one 0/0/0 row per channel, which its check FAILs
// as "no programs recorded".
func TestFig8bReadsMissingPlanesAsZeros(t *testing.T) {
	o := TestOptions()
	var tables []string
	for _, writes := range []planeRunner{nil, make(planeRunner, o.Cfg.Flash.Planes())} {
		o.Runner = writes
		tab, err := Fig8b(o)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Rows() != o.Cfg.Flash.Channels {
			t.Errorf("%d planes: %d rows, want one per channel (%d)", len(writes), tab.Rows(), o.Cfg.Flash.Channels)
		}
		for r := range tab.Rows() {
			if row := tab.Row(r); !slices.Equal(row[1:], []string{"0", "0", "0"}) {
				t.Errorf("%d planes: row %v, want min, max and total 0", len(writes), row)
			}
		}
		if err := checkFig8b(tab); err == nil || err.Error() != "no programs recorded" {
			t.Errorf("%d planes: checkFig8b = %v, want the FAIL \"no programs recorded\"", len(writes), err)
		}
		tables = append(tables, tab.String())
	}
	if tables[0] != tables[1] {
		t.Errorf("a missing array renders\n%s\nan all-zero one\n%s", tables[0], tables[1])
	}
}

// TestFigureFailsNamingCell: a figure needs its whole grid, so one
// failed cell fails it, and the error names that cell and its cause.
func TestFigureFailsNamingCell(t *testing.T) {
	o := TestOptions()
	bad := o.Mixes[1].Name
	o.Runner = failingRunner(func(kind platform.Kind, mix workload.Mix, _ config.Config) bool {
		return kind == platform.ZnGBase && mix.Name == bad
	})
	tab, err := Fig10(o)
	if err == nil {
		t.Fatalf("Fig10 with a failing cell returned a table:\n%s", tab)
	}
	for _, want := range []string{"ZnG-base on " + bad, "injected failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestSweepFailureNamesOverride: in a sweep whose cells differ only in
// their override, the error names the failed cell's override and scale.
func TestSweepFailureNamesOverride(t *testing.T) {
	o := TestOptions()
	o.Runner = failingRunner(func(_ platform.Kind, _ workload.Mix, cfg config.Config) bool {
		return cfg.Prefetch.HighWaste == 0.8 && cfg.Prefetch.LowWaste == 0.2
	})
	_, err := Fig13Sweep(o)
	want := fmt.Sprintf("ZnG on betw-back at scale %g [hi0.8+lo0.2]: injected failure", o.Scale)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Fig13Sweep error = %v, want it to contain %q", err, want)
	}
}

// TestFiguresShareCells: figures under one Options share its runner, so
// the Fig. 13 sweep's (0.3, 0.05) cell, which is the base
// configuration, is the ZnG betw-back cell Fig. 10 already simulated.
func TestFiguresShareCells(t *testing.T) {
	o := TestOptions()
	o.Mixes = o.Mixes[:1] // betw-back
	if _, err := Fig10(o); err != nil {
		t.Fatal(err)
	}
	before := memoStats(t, o)
	if _, err := Fig13Sweep(o); err != nil {
		t.Fatal(err)
	}
	after := memoStats(t, o)
	if sims, hits := after.Sims-before.Sims, after.MemoryHits-before.MemoryHits; sims != 11 || hits != 1 {
		t.Errorf("Fig13Sweep after Fig10 added %d simulations and %d memory hits, want 11 and 1", sims, hits)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Scale != workload.DefaultScale || len(o.Mixes) != 12 {
		t.Errorf("defaults: %+v", o)
	}
	if o.workers() < 1 {
		t.Error("workers must be positive")
	}
}

// TestOptionsHoldNoGoroutine: an Options value's service runs a worker
// only while a cell is queued, so building the three option sets and
// running a scale-free figure under each starts no goroutine, and one
// that has simulated a cell holds none once it is idle.
func TestOptionsHoldNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, o := range []Options{DefaultOptions(), TestOptions(), DocsOptions()} {
		if _, err := TableI(o); err != nil {
			t.Fatal(err)
		}
	}
	// A goroutine of an earlier test may still be exiting, so only
	// growth counts.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
	o := TestOptions()
	if _, err := o.Runner.Run(platform.GDDR5, o.Mixes[0], 0.02, o.Cfg); err != nil {
		t.Fatal(err)
	}
	// The worker exits just after it wakes the caller.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d and stayed a second after the cell finished", before, runtime.NumGoroutine())
		}
	}
}
