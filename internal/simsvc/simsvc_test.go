package simsvc

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"zng/internal/campaign"
	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/store"
	"zng/internal/workload"
)

// testRegime is the scaled-down regime of the tests that run the real
// simulator, as experiments.TestOptions sets it: short traces, with 8
// SMs and both L2s cut to 1/8 so cache pressure stays realistic.
type testRegime struct {
	Scale float64
	Cfg   config.Config
}

func testOptions() testRegime {
	cfg := config.Default()
	cfg.GPU.SMs = 8
	cfg.L2SRAM.Sets /= 8
	cfg.L2STT.Sets /= 8
	return testRegime{Scale: 0.12, Cfg: cfg}
}

// testMix resolves a registered scenario or fails the test.
func testMix(t testing.TB, name string) workload.Mix {
	t.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stubSim returns a canned result and counts invocations; the gate
// (when non-nil) blocks every invocation until released, letting
// tests pile requests onto an in-flight cell deterministically, and
// started (when non-nil) receives before the gate so tests can wait
// for a simulation to be in flight without spinning.
type stubSim struct {
	mu      sync.Mutex
	calls   int
	gate    chan struct{}
	started chan struct{}
	res     platform.Result
	err     error
}

func (s *stubSim) fn(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	s.mu.Lock()
	s.calls++
	gate, started := s.gate, s.started
	s.mu.Unlock()
	if started != nil {
		started <- struct{}{}
	}
	if gate != nil {
		<-gate
	}
	r := s.res
	r.Kind = kind
	r.Workload = mix.ID() // as platform.RunMix labels it
	return r, s.err
}

func (s *stubSim) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// submit admits req without waiting for it, as an async POST /v1/run
// does, and returns its job's id.
func submit(t testing.TB, svc *Service, req Request) string {
	t.Helper()
	_, info, err := svc.SubmitWait(context.Background(), req, 0)
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// await waits for job id to finish, as GET /v1/jobs/{id}?wait does,
// and returns its result or its error.
func await(t testing.TB, svc *Service, id string) (platform.Result, error) {
	t.Helper()
	info, res, ok := svc.JobResult(context.Background(), id, time.Minute)
	switch {
	case !ok:
		t.Fatalf("unknown job %q", id)
	case info.State == StateError:
		return res, errors.New(info.Error)
	case info.State != StateDone:
		t.Fatalf("job %s still %s after a minute", id, info.State)
	}
	return res, nil
}

// jobInfo snapshots job id without waiting.
func jobInfo(svc *Service, id string) (JobInfo, bool) {
	info, _, ok := svc.JobResult(context.Background(), id, 0)
	return info, ok
}

// TestCoalescing is the tentpole property: K concurrent identical
// requests perform exactly one simulation, asserted via the service
// counters — the same counters the zngd /metrics endpoint serves.
func TestCoalescing(t *testing.T) {
	sim := &stubSim{gate: make(chan struct{}), started: make(chan struct{}, 1), res: platform.Result{IPC: 2.5}}
	svc := New(Config{Workers: 2, Simulate: sim.fn})
	defer svc.Close()

	req := Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: 0.5, Cfg: config.Default()}
	const callers = 16
	ids := make([]string, callers)
	results := make([]platform.Result, callers)
	errs := make([]error, callers)

	// Admit the first request and wait until its simulation is in
	// flight, so every later submit must attach to it.
	id0 := submit(t, svc, req)
	<-sim.started

	var wg sync.WaitGroup
	for i := 1; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var info JobInfo
			results[i], info, errs[i] = svc.DoJob(req)
			ids[i] = info.ID
		}()
	}
	// Release the simulation once every request has attached.
	for svc.Stats().Coalesced != callers-1 {
		runtime.Gosched()
	}
	close(sim.gate)
	results[0], errs[0] = await(t, svc, id0)
	ids[0] = id0
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if ids[i] != id0 {
			t.Errorf("caller %d got job %s, want coalesced onto %s", i, ids[i], id0)
		}
		if results[i].IPC != 2.5 {
			t.Errorf("caller %d IPC = %v", i, results[i].IPC)
		}
	}
	if got := sim.count(); got != 1 {
		t.Errorf("%d concurrent identical requests performed %d simulations, want exactly 1", callers, got)
	}
	st := svc.Stats()
	if st.Sims != 1 || st.Coalesced != callers-1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 sim, %d coalesced", st, callers-1)
	}
	job, ok := jobInfo(svc, id0)
	if !ok || job.State != StateDone || job.Waiters != callers-1 || job.Source != "sim" {
		t.Errorf("job = %+v, want done with %d waiters from sim", job, callers-1)
	}

	// A late identical request is a pure memory hit on the completed
	// cell — still no new simulation.
	if _, err := svc.Run(req.Kind, req.Mix, req.Scale, req.Cfg); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.MemoryHits != 1 || st.Sims != 1 {
		t.Errorf("post-completion stats = %+v, want 1 memory hit, 1 sim", st)
	}
}

// TestDiskRoundTripAcrossRestart pins the acceptance criterion:
// restarting the service over the same store directory serves a
// previously computed cell from disk with zero new simulations.
func TestDiskRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim1 := &stubSim{res: platform.Result{IPC: 1.5, Extra: map[string]float64{"k": 9}}}
	svc1 := New(Config{Store: st1, Workers: 1, Simulate: sim1.fn})
	req := Request{Kind: platform.HybridGPU, Mix: testMix(t, "bfs1-gaus"), Scale: 0.25, Cfg: config.Default()}
	r1, err := svc1.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	if sim1.count() != 1 {
		t.Fatalf("first service simulated %d times, want 1", sim1.count())
	}

	// "Restart": a fresh service over the same directory, with a
	// simulator that must never fire.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim2 := &stubSim{err: errors.New("must not simulate")}
	svc2 := New(Config{Store: st2, Workers: 1, Simulate: sim2.fn})
	defer svc2.Close()
	r2, err := svc2.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if sim2.count() != 0 {
		t.Errorf("restarted service simulated %d times, want 0 (disk serve)", sim2.count())
	}
	stats := svc2.Stats()
	if stats.DiskHits != 1 || stats.Sims != 0 {
		t.Errorf("restarted stats = %+v, want exactly one disk hit", stats)
	}
	if r2.IPC != r1.IPC || r2.Extra["k"] != 9 {
		t.Errorf("disk-served result %+v differs from original %+v", r2, r1)
	}

	// The aliasing contract survives the disk path too: consol-2 has
	// the same content ID, so it hits the same entry and is answered
	// the same document.
	alias := req
	alias.Mix = testMix(t, "consol-2")
	r3, err := svc2.Do(alias)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report.EncodeResult(r3), report.EncodeResult(r1); !bytes.Equal(got, want) {
		t.Errorf("alias served\n%s\nwant\n%s", got, want)
	}
	if sim2.count() != 0 {
		t.Error("alias request simulated; want shared cell")
	}
}

// TestCorruptEntryFallsBackToSimulation: a torn store entry must not
// poison the service — it re-simulates and heals the entry.
func TestCorruptEntryFallsBackToSimulation(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: platform.ZnGBase, Mix: testMix(t, "pr-gaus"), Scale: 0.5, Cfg: config.Default()}
	key := cellkey.Key(req.Kind, req.Mix.ID(), req.Scale, req.Cfg)
	if err := os.WriteFile(st.Path(key), []byte("{\"kind\":\"ZnG-base\",\"ipc\":"), 0o644); err != nil {
		t.Fatal(err)
	}

	sim := &stubSim{res: platform.Result{IPC: 4.5}}
	svc := New(Config{Store: st, Workers: 1, Simulate: sim.fn})
	r, err := svc.Do(req)
	svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sim.count() != 1 {
		t.Errorf("corrupt entry should force one simulation, got %d", sim.count())
	}
	if r.IPC != 4.5 {
		t.Errorf("IPC = %v, want the re-simulated 4.5", r.IPC)
	}
	if got, ok := st.Get(key); !ok || got.IPC != 4.5 {
		t.Errorf("entry not healed: ok=%v, %+v", ok, got)
	}
}

// TestPriorityOrdersQueue: with one busy worker, a higher-priority
// job submitted later must run before an earlier lower-priority one.
func TestPriorityOrdersQueue(t *testing.T) {
	var (
		mu    sync.Mutex
		order []string
	)
	gate := make(chan struct{})
	sim := func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		if scale == 1 { // the gating job
			<-gate
		}
		mu.Lock()
		order = append(order, mix.Name)
		mu.Unlock()
		return platform.Result{IPC: 1}, nil
	}
	svc := New(Config{Workers: 1, Simulate: sim})
	defer svc.Close()

	cfg := config.Default()
	gateID := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-bfs1"), Scale: 1, Cfg: cfg})
	// Wait until the gating job occupies the only worker, so the next
	// two jobs are truly queued.
	for {
		if j, _ := jobInfo(svc, gateID); j.State == StateRunning {
			break
		}
		runtime.Gosched()
	}
	lowID := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-gaus"), Scale: 2, Cfg: cfg, Priority: 0})
	highID := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-pr"), Scale: 2, Cfg: cfg, Priority: 5})
	close(gate)
	for _, id := range []string{gateID, lowID, highID} {
		if _, err := await(t, svc, id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"solo-bfs1", "solo-pr", "solo-gaus"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (priority must preempt FIFO)", order, want)
		}
	}
}

// TestCoalescedAttachPromotesPriority: attaching a high-priority
// request to a queued low-priority job must promote the job, not let
// the request silently inherit the old queue position.
func TestCoalescedAttachPromotesPriority(t *testing.T) {
	var (
		mu    sync.Mutex
		order []string
	)
	gate := make(chan struct{})
	sim := func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		if scale == 1 { // the gating job
			<-gate
		}
		mu.Lock()
		order = append(order, mix.Name)
		mu.Unlock()
		return platform.Result{IPC: 1}, nil
	}
	svc := New(Config{Workers: 1, Simulate: sim})
	defer svc.Close()

	cfg := config.Default()
	gateID := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-bfs1"), Scale: 1, Cfg: cfg})
	for {
		if j, _ := jobInfo(svc, gateID); j.State == StateRunning {
			break
		}
		runtime.Gosched()
	}
	// Queue cell X at priority 0, then cell Y at priority 5; a
	// priority-9 attach to X must now run X before Y.
	lowReq := Request{Kind: platform.ZnG, Mix: testMix(t, "solo-gaus"), Scale: 2, Cfg: cfg, Priority: 0}
	lowID := submit(t, svc, lowReq)
	midID := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-pr"), Scale: 2, Cfg: cfg, Priority: 5})
	attach := lowReq
	attach.Priority = 9
	attachID := submit(t, svc, attach)
	if attachID != lowID {
		t.Fatalf("identical cell got its own job %s (want coalesced onto %s)", attachID, lowID)
	}
	if j, _ := jobInfo(svc, lowID); j.Priority != 9 || j.Waiters != 1 {
		t.Errorf("attached job = %+v, want promoted to priority 9 with 1 waiter", j)
	}
	close(gate)
	for _, id := range []string{gateID, lowID, midID} {
		if _, err := await(t, svc, id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"solo-bfs1", "solo-gaus", "solo-pr"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (attach must promote)", order, want)
		}
	}
}

// TestCloseDrainsInFlightAndFailsQueued: graceful shutdown lets the
// running simulation finish (its result is preserved) while queued
// jobs and new submissions fail with ErrClosed.
func TestCloseDrainsInFlightAndFailsQueued(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	sim := func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		once.Do(func() { close(started) })
		<-gate
		return platform.Result{IPC: 7}, nil
	}
	svc := New(Config{Workers: 1, Simulate: sim})
	cfg := config.Default()
	runningID := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-bfs1"), Scale: 1, Cfg: cfg})
	<-started
	queuedID := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-gaus"), Scale: 1, Cfg: cfg})

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	// The queued job fails promptly, even while the running one drains.
	if _, err := await(t, svc, queuedID); err == nil || err.Error() != ErrClosed.Error() {
		t.Errorf("queued job error = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned before the in-flight simulation drained")
	default:
	}
	close(gate)
	<-closed
	r, err := await(t, svc, runningID)
	if err != nil || r.IPC != 7 {
		t.Errorf("drained job = %+v, %v; want IPC 7", r, err)
	}
	if _, _, err := svc.SubmitWait(context.Background(), Request{Kind: platform.ZnG, Mix: testMix(t, "solo-pr"), Scale: 1, Cfg: cfg}, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit error = %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestDiskServedEqualsFreshSimulation is the determinism satellite: a
// result served from the persistent store must equal a freshly
// simulated one byte-for-byte under the canonical result encoding.
// This runs the real simulator at a small scale.
func TestDiskServedEqualsFreshSimulation(t *testing.T) {
	o := testOptions()
	mix := testMix(t, "solo-bfs1")
	kind := platform.GDDR5

	fresh, err := platform.RunMix(kind, mix, o.Scale, o.Cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(Config{Store: st1, Workers: 1})
	if _, err := svc1.Run(kind, mix, o.Scale, o.Cfg); err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{Store: st2, Workers: 1, Simulate: func(platform.Kind, workload.Mix, float64, config.Config) (platform.Result, error) {
		return platform.Result{}, errors.New("must serve from disk")
	}})
	defer svc2.Close()
	served, err := svc2.Run(kind, mix, o.Scale, o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if svc2.Stats().DiskHits != 1 {
		t.Fatalf("second service stats = %+v, want one disk hit", svc2.Stats())
	}
	if a, b := report.EncodeResult(fresh), report.EncodeResult(served); !bytes.Equal(a, b) {
		t.Errorf("disk-served result differs from fresh simulation:\nfresh: %s\ndisk:  %s", a, b)
	}
}

// TestServiceImplementsRunner pins the structural contract the whole
// refactor hangs on: the service is a drop-in campaign runner.
var _ campaign.Runner = (*Service)(nil)

// TestErrorsAreCachedInMemory: a deterministic failure is remembered
// like a result — retrying the cell does not re-simulate.
func TestErrorsAreCachedInMemory(t *testing.T) {
	sim := &stubSim{err: errors.New("deadlock at tick 42")}
	svc := New(Config{Workers: 1, Simulate: sim.fn})
	defer svc.Close()
	req := Request{Kind: platform.Hetero, Mix: testMix(t, "solo-bfs1"), Scale: 0.5, Cfg: config.Default()}
	if _, err := svc.Do(req); err == nil {
		t.Fatal("want simulation error")
	}
	if _, err := svc.Do(req); err == nil {
		t.Fatal("want cached error")
	}
	if sim.count() != 1 {
		t.Errorf("failing cell simulated %d times, want 1 (errors cache)", sim.count())
	}
	if st := svc.Stats(); st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want the retry counted as a memory hit", st)
	}
}

// TestRetentionEvictsPersistedJobs: past MaxJobs, the oldest
// done-and-persisted jobs leave memory; their cells re-serve from the
// store as disk hits, not re-simulations.
func TestRetentionEvictsPersistedJobs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sim := &stubSim{res: platform.Result{IPC: 2}}
	svc := New(Config{Store: st, Workers: 1, Simulate: sim.fn, MaxJobs: 2})
	defer svc.Close()

	cfg := config.Default()
	mixes := []string{"solo-bfs1", "solo-gaus", "solo-pr", "solo-back"}
	for _, name := range mixes {
		if _, err := svc.Do(Request{Kind: platform.ZnG, Mix: testMix(t, name), Scale: 0.5, Cfg: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(svc.Jobs()); got != 2 {
		t.Errorf("retained jobs = %d, want the MaxJobs bound of 2", got)
	}
	if got := svc.EvictedJobs(); got != 2 {
		t.Errorf("evicted = %d, want 2", got)
	}
	// The oldest jobs went first: their ids are gone, the newest stay.
	if _, ok := jobInfo(svc, "job-1"); ok {
		t.Error("oldest job survived eviction")
	}
	if _, ok := jobInfo(svc, "job-4"); !ok {
		t.Error("newest job was evicted")
	}

	// An evicted cell re-serves from disk: no new simulation.
	before := sim.count()
	r, err := svc.Do(Request{Kind: platform.ZnG, Mix: testMix(t, mixes[0]), Scale: 0.5, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if sim.count() != before {
		t.Errorf("evicted cell re-simulated (%d -> %d calls), want disk serve", before, sim.count())
	}
	if stats := svc.Stats(); stats.DiskHits != 1 {
		t.Errorf("stats = %+v, want one disk hit for the evicted cell", stats)
	}
	if r.IPC != 2 {
		t.Errorf("disk-served IPC = %v", r.IPC)
	}
}

// TestRetentionKeepsUnpersistedJobs: a memory-only service has no
// disk to fall back on, so done jobs are never evicted regardless of
// the bound — the memo contract only degrades where the store backs
// it up. Failed jobs are evictable everywhere (a deterministic
// failure recomputes identically).
func TestRetentionKeepsUnpersistedJobs(t *testing.T) {
	sim := &stubSim{res: platform.Result{IPC: 1}}
	svc := New(Config{Workers: 1, Simulate: sim.fn, MaxJobs: 1})
	defer svc.Close()
	cfg := config.Default()
	for _, name := range []string{"solo-bfs1", "solo-gaus", "solo-pr"} {
		if _, err := svc.Do(Request{Kind: platform.ZnG, Mix: testMix(t, name), Scale: 0.5, Cfg: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(svc.Jobs()); got != 3 {
		t.Errorf("memory-only service retained %d jobs, want all 3 (nothing persisted)", got)
	}
	if svc.EvictedJobs() != 0 {
		t.Errorf("memory-only service evicted %d jobs", svc.EvictedJobs())
	}

	// Error jobs evict even without a store.
	failing := &stubSim{err: errors.New("deadlock")}
	svc2 := New(Config{Workers: 1, Simulate: failing.fn, MaxJobs: 1})
	defer svc2.Close()
	for _, name := range []string{"solo-bfs1", "solo-gaus"} {
		if _, err := svc2.Do(Request{Kind: platform.ZnG, Mix: testMix(t, name), Scale: 0.5, Cfg: cfg}); err == nil {
			t.Fatal("want simulation error")
		}
	}
	if got := len(svc2.Jobs()); got != 1 {
		t.Errorf("failing service retained %d jobs, want 1", got)
	}
	if svc2.EvictedJobs() != 1 {
		t.Errorf("failing service evicted %d, want 1", svc2.EvictedJobs())
	}
}

// TestDoSurvivesEvictionChurn: Do holds the job it submitted, so
// aggressive retention (MaxJobs=1) can never evict a result out from
// under a waiting caller — the race a submit-then-wait-by-id pair
// would have (the id lookup can miss after eviction).
func TestDoSurvivesEvictionChurn(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sim := &stubSim{res: platform.Result{IPC: 1}}
	svc := New(Config{Store: st, Workers: 2, Simulate: sim.fn, MaxJobs: 1})
	defer svc.Close()
	cfg := config.Default()
	mixes := []workload.Mix{testMix(t, "solo-bfs1"), testMix(t, "solo-gaus"), testMix(t, "solo-pr")}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m := mixes[(g+i)%len(mixes)]
				if r, err := svc.Do(Request{Kind: platform.ZnG, Mix: m, Scale: 0.5, Cfg: cfg}); err != nil {
					errs <- err
					return
				} else if r.IPC != 1 {
					errs <- errors.New("lost result under eviction churn")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("Do under eviction churn: %v", err)
	}
	if svc.EvictedJobs() == 0 {
		t.Error("churn produced no evictions; the test exercised nothing")
	}
}

// TestJobResultSingleLookup: JobResult reports status and result in
// one snapshot — done jobs carry their result, unfinished and
// unknown ids do not.
func TestJobResultSingleLookup(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	sim := &stubSim{gate: gate, started: started, res: platform.Result{IPC: 6}}
	svc := New(Config{Workers: 1, Simulate: sim.fn})
	defer svc.Close()
	id := submit(t, svc, Request{Kind: platform.ZnG, Mix: testMix(t, "solo-bfs1"), Scale: 0.5, Cfg: config.Default()})
	<-started
	if info, _, ok := svc.JobResult(context.Background(), id, 0); !ok || info.State == StateDone {
		t.Errorf("in-flight JobResult = %+v, %v", info, ok)
	}
	close(gate)
	if _, err := await(t, svc, id); err != nil {
		t.Fatal(err)
	}
	info, res, ok := svc.JobResult(context.Background(), id, 0)
	if !ok || info.State != StateDone || res.IPC != 6 {
		t.Errorf("done JobResult = %+v, %+v, %v; want done with IPC 6", info, res, ok)
	}
	if _, _, ok := svc.JobResult(context.Background(), "job-999", 0); ok {
		t.Error("unknown id resolved")
	}
}

// TestPanickingSimulationBecomesJobError: a configuration that
// config.Validate accepts but whose flash the trace outgrows (one plane
// of nine 16-page blocks; reachable from outside through zngd's
// "config" request field) panics in the FTL, and the simulator's error
// for it fails that job, replayed without a simulation on a repeat,
// instead of killing the worker and with it the daemon.
func TestPanickingSimulationBecomesJobError(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	tiny := config.Default()
	tiny.Flash.Channels, tiny.Flash.DiesPerPkg, tiny.Flash.PlanesPerDie = 1, 1, 1
	tiny.Flash.BlocksPerPl, tiny.Flash.PagesPerBlock = 9, 16
	bad := Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: 0.05, Cfg: tiny}
	const want = "platform ZnG: ftl: plane out of data blocks (working set exceeds capacity)"
	for range 2 {
		if _, err := svc.Do(bad); err == nil || err.Error() != want {
			t.Fatalf("outgrown flash = %v, want the job error %q", err, want)
		}
	}
	if st := svc.Stats(); st.Sims != 1 || st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want one simulation and a replayed failure", st)
	}
	// The worker survived: a sane request on the same service works.
	if r, err := svc.Do(Request{Kind: platform.GDDR5, Mix: testMix(t, "solo-bfs1"), Scale: 0.02, Cfg: config.Default()}); err != nil || !(r.IPC > 0) {
		t.Fatalf("service dead after the failed cell: %v, %+v", err, r)
	}
}
