package experiments

import (
	"sync"
	"testing"

	"zng/internal/platform"
	"zng/internal/simsvc"
	"zng/internal/workload"
)

// runCell asks the Options' runner for one registered scenario.
func runCell(o Options, k platform.Kind, name string) (platform.Result, error) {
	m, err := workload.MixByName(name)
	if err != nil {
		return platform.Result{}, err
	}
	return o.Runner.Run(k, m, o.Scale, o.Cfg)
}

// memoStats extracts the RunnerStats of the memory-only service the
// Options inject.
func memoStats(t *testing.T, o Options) simsvc.RunnerStats {
	t.Helper()
	svc, ok := o.Runner.(*simsvc.Service)
	if !ok {
		t.Fatalf("options runner is %T, want the memory-only *simsvc.Service", o.Runner)
	}
	if svc.Store() != nil {
		t.Fatalf("options runner is backed by store %s, want memory only", svc.Store().Dir())
	}
	return svc.Stats()
}

// TestMemoDedupsRepeatedMatrices pins the memo property of the service
// TestOptions injects: running the same matrix twice under one Options
// lineage performs each unique simulation exactly once. The service is
// per-Options, not process-wide.
func TestMemoDedupsRepeatedMatrices(t *testing.T) {
	o := TestOptions()
	o.Scale = 0.013
	o.Mixes = o.Mixes[:2]
	kinds := []platform.Kind{platform.GDDR5, platform.Optane}
	cells := uint64(len(kinds) * len(o.Mixes))

	for run := 0; run < 2; run++ {
		if _, err := runMixes(o, kinds...); err != nil {
			t.Fatal(err)
		}
	}
	st := memoStats(t, o)
	if st.Sims != cells {
		t.Errorf("unique simulations = %d, want %d (each cell exactly once)", st.Sims, cells)
	}
	if st.MemoryHits != cells {
		t.Errorf("memory hits = %d, want %d (second run fully served from memo)", st.MemoryHits, cells)
	}
	if st.DiskHits != 0 {
		t.Errorf("memo reported %d disk hits; it has no disk", st.DiskHits)
	}
}

// TestMemoSingleFlight: concurrent requests for one cell coalesce
// onto a single simulation of the injected service.
func TestMemoSingleFlight(t *testing.T) {
	o := TestOptions()
	o.Scale = 0.017

	const callers = 8
	var wg sync.WaitGroup
	results := make([]platform.Result, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := runCell(o, platform.GDDR5, "betw-back")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	st := memoStats(t, o)
	if st.Sims != 1 {
		t.Errorf("concurrent identical requests performed %d simulations, want 1", st.Sims)
	}
	if got := st.MemoryHits + st.Coalesced; got != callers-1 {
		t.Errorf("memory hits (%d) + coalesced (%d) = %d, want %d",
			st.MemoryHits, st.Coalesced, got, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i].IPC != results[0].IPC || results[i].Cycles != results[0].Cycles {
			t.Errorf("caller %d saw a different result: %+v vs %+v", i, results[i], results[0])
		}
	}
}

// TestMemoIsolatedPerOptions: two independently built Options values
// must not observe each other's cells — the property that freed the
// tests of process-wide state.
func TestMemoIsolatedPerOptions(t *testing.T) {
	a, b := TestOptions(), TestOptions()
	a.Scale, b.Scale = 0.011, 0.011
	if _, err := runCell(a, platform.GDDR5, "betw-back"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCell(b, platform.GDDR5, "betw-back"); err != nil {
		t.Fatal(err)
	}
	if st := memoStats(t, b); st.Sims != 1 || st.MemoryHits != 0 {
		t.Errorf("second lineage stats %+v, want its own single simulation", st)
	}
}
