package platform

import (
	"runtime"
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/sim"
	"zng/internal/workload"
)

// mallocs reports the heap allocations one RunApps call makes.
func mallocs(t *testing.T, k Kind, mix workload.Mix, scale float64, cfg config.Config) (uint64, Result) {
	t.Helper()
	apps, err := mix.Apps(scale)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := RunApps(k, mix.Name, apps, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return after.Mallocs - before.Mallocs, r
}

// TestSimulationHotPathAllocFree pins the allocation-free hot path:
// warps, caches, the MMU, the interconnects and every backend schedule
// typed events and recycle their in-flight records, so quadrupling a
// run's trace adds few allocations. What remains grows with the
// model's footprint and queueing high-water marks (flash blocks and
// FTL tables touched, record pools), not with each access. The
// closure-per-event engine allocated about one object per retired
// instruction on these cells; a single closure per memory access would
// cost 0.1 or more.
func TestSimulationHotPathAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full platforms")
	}
	for _, c := range []struct {
		kind Kind
		mix  string
	}{
		{ZnG, "bfs1-gaus"}, {ZnGBase, "betw-back"}, {HybridGPU, "bfs1-gaus"},
		{GDDR5, "betw-back"}, {Hetero, "bfs1-gaus"},
	} {
		mix, err := workload.MixByName(c.mix)
		if err != nil {
			t.Fatal(err)
		}
		small, rs := mallocs(t, c.kind, mix, 0.1, testCfg())
		large, rl := mallocs(t, c.kind, mix, 0.4, testCfg())
		extraInsts := float64(rl.Insts - rs.Insts)
		extraAllocs := float64(large) - float64(small)
		if perInst := extraAllocs / extraInsts; perInst > 0.04 {
			t.Errorf("%v %s: %.0f extra allocations for %.0f extra instructions (%.4f per instruction, budget 0.04)",
				c.kind, c.mix, extraAllocs, extraInsts, perInst)
		}
	}
}

// TestRunAppsAllocationBudget pins the slab-backed simulator state:
// records for work in flight come from chunked free lists and flash
// block state from backbone-wide slabs, so a run's allocations follow
// its components, not its in-flight high-water marks or the blocks it
// touches. At experiments.TestOptions' scale and configuration, every
// platform makes 470 (Optane) to 1,722 (Hetero) allocations on
// bfs1-gaus; allocating each record, block and directory chunk on its
// own made 3,098 to 5,671.
func TestRunAppsAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every platform")
	}
	const budget = 2400
	mix, err := workload.MixByName("bfs1-gaus")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds() {
		if n, _ := mallocs(t, k, mix, 0.12, testCfg()); n > budget {
			t.Errorf("%v %s: RunApps made %d allocations, budget %d", k, mix.Name, n, budget)
		}
	}
}

// TestValidateConfigAllocFree: RunApps, and zngd before admission,
// validate every configuration, so a valid one must cost no
// allocation, not even by moving the caller's copy to the heap.
func TestValidateConfigAllocFree(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		cfg := config.Default()
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate allocates %.0f objects on the Table I configuration, want 0", allocs)
	}
}

// TestIdlePlaneWritesAllocFree: a backbone that never programmed
// reports no plane counts and costs no allocation for saying so.
func TestIdlePlaneWritesAllocFree(t *testing.T) {
	bb := flash.New(sim.NewEngine(), config.Default().Flash)
	var out []uint64
	if allocs := testing.AllocsPerRun(100, func() { out = planeWrites(bb) }); allocs != 0 || out != nil {
		t.Errorf("planeWrites of an idle backbone made %.0f allocations and %d entries, want 0 and nil", allocs, len(out))
	}
}
