package simsvc

import (
	"context"
	"errors"
	"testing"

	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/store"
	"zng/internal/workload"
)

// TestTierOutcomeSpans drives one cell through every serve outcome —
// fresh simulation, memory-tier hit, disk-tier hit, negative replay —
// and asserts each traced request's span tree names the tier that
// served it.
func TestTierOutcomeSpans(t *testing.T) {
	mixA := testMix(t, "solo-bfs1")
	mixB := testMix(t, "solo-gaus")
	mixF := testMix(t, "solo-pr")
	cfg := config.Default()

	do := func(svc *Service, tr *obs.Tracer, mix workload.Mix, scale float64) (obs.ID, JobInfo, error) {
		root := tr.StartRoot("test.request", mix.Name)
		_, job, err := svc.SubmitWait(context.Background(), Request{Kind: platform.ZnG, Mix: mix, Scale: scale, Cfg: cfg, Trace: root.Context()}, forever)
		root.End()
		return root.Context().Trace, job, err
	}
	names := func(tr *obs.Tracer, id obs.ID) map[string]bool {
		out := map[string]bool{}
		for _, r := range tr.Trace(id) {
			out[r.Name] = true
		}
		return out
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("svc-1", 256, 1)
	svc := New(Config{Store: st, Workers: 1, MaxJobs: 1, CacheEntries: 8, Tracer: tr,
		Simulate: func(kind platform.Kind, mix workload.Mix, scale float64, c config.Config) (platform.Result, error) {
			if mix.ID() == mixF.ID() {
				return platform.Result{}, errors.New("rigged failure")
			}
			return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
		}})

	// Fresh simulation: the worker loop records the queue wait, the
	// tier miss, the simulation itself and the store write-through.
	simTrace, job, err := do(svc, tr, mixA, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "sim" {
		t.Fatalf("first serve source = %q, want sim", job.Source)
	}
	got := names(tr, simTrace)
	for _, want := range []string{"queue", "tier.miss", "sim", "store.put"} {
		if !got[want] {
			t.Errorf("sim-outcome trace missing %q span (got %v)", want, got)
		}
	}

	// Cell B evicts A's job memo (MaxJobs: 1); the re-request for A
	// must serve from the memory tier and say so in its span.
	if _, err := svc.Run(platform.ZnG, mixB, 0.5, cfg); err != nil {
		t.Fatal(err)
	}
	memTrace, job, err := do(svc, tr, mixA, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "memory" {
		t.Fatalf("re-request source = %q, want memory (stats %+v)", job.Source, svc.TierStats())
	}
	if got := names(tr, memTrace); !got["tier.memory"] {
		t.Errorf("memory-outcome trace missing tier.memory span (got %v)", got)
	}

	// A failing cell records its sim span with the error attached...
	failTrace, _, err := do(svc, tr, mixF, 0.5)
	if err == nil {
		t.Fatal("rigged failure did not surface")
	}
	var simErr string
	for _, r := range tr.Trace(failTrace) {
		if r.Name == "sim" {
			simErr = r.Err
		}
	}
	if simErr != "rigged failure" {
		t.Errorf("failed sim span err = %q, want the rigged failure", simErr)
	}
	// ...and once retention drops the failed job (a fresh cell pushes
	// it out), the repeat serves from the negative cache.
	if _, err := svc.Run(platform.ZnG, mixB, 0.25, cfg); err != nil {
		t.Fatal(err)
	}
	negTrace, job, err := do(svc, tr, mixF, 0.5)
	if err == nil || err.Error() != "rigged failure" {
		t.Fatalf("negative replay err = %v", err)
	}
	if job.Source != "memory" {
		t.Fatalf("negative replay source = %q, want memory", job.Source)
	}
	if got := names(tr, negTrace); !got["tier.negative"] {
		t.Errorf("negative-outcome trace missing tier.negative span (got %v)", got)
	}
	svc.Close()

	// A fresh process over the same store has an empty memory tier:
	// cell A must disk-serve, and its span tree must show the worker
	// loop found it on disk (the simulator is rigged to prove no
	// recomputation happened).
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := obs.New("svc-2", 256, 1)
	svc2 := New(Config{Store: st2, Workers: 1, CacheEntries: 8, Tracer: tr2,
		Simulate: func(platform.Kind, workload.Mix, float64, config.Config) (platform.Result, error) {
			return platform.Result{}, errors.New("must serve from disk")
		}})
	defer svc2.Close()
	diskTrace, job, err := do(svc2, tr2, mixA, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "disk" {
		t.Fatalf("restart serve source = %q, want disk", job.Source)
	}
	got = names(tr2, diskTrace)
	if !got["queue"] || !got["tier.disk"] {
		t.Errorf("disk-outcome trace missing queue/tier.disk spans (got %v)", got)
	}
}
