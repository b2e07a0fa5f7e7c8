package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/restier"
	"zng/internal/store"
	"zng/internal/workload"
)

// TestTierServedEqualsFreshSimulation is the tier determinism
// satellite: the same cell served from the memory tier, from the
// disk tier, and by a fresh simulation must encode byte-identically
// under report.EncodeResult. This runs the real simulator at a small
// scale.
func TestTierServedEqualsFreshSimulation(t *testing.T) {
	o := testOptions()
	mixA := testMix(t, "solo-bfs1")
	mixB := testMix(t, "solo-gaus")
	kind := platform.GDDR5

	fresh, err := platform.RunMix(kind, mixA, o.Scale, o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := report.EncodeResult(fresh)

	// Service 1: real simulator, tier on, retention of one job. Cell A
	// simulates and writes through; cell B evicts A's job memo; the
	// re-request for A must then come from the memory tier.
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(Config{Store: st1, Workers: 1, MaxJobs: 1, CacheEntries: 4})
	if _, err := svc1.Run(kind, mixA, o.Scale, o.Cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.Run(kind, mixB, o.Scale, o.Cfg); err != nil {
		t.Fatal(err)
	}
	memServed, job, err := svc1.DoJob(Request{Kind: kind, Mix: mixA, Scale: o.Scale, Cfg: o.Cfg})
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "memory" {
		t.Fatalf("re-request after job eviction served from %q, want the memory tier (stats %+v, tier %+v)",
			job.Source, svc1.Stats(), svc1.TierStats())
	}
	if got := report.EncodeResult(memServed); !bytes.Equal(got, want) {
		t.Errorf("memory-tier result differs from fresh simulation:\nfresh:  %s\nmemory: %s", want, got)
	}
	if st := svc1.Stats(); st.Sims != 2 {
		t.Errorf("service simulated %d times, want 2 (the memory serve must not simulate)", st.Sims)
	}
	svc1.Close()

	// Service 2: fresh process over the same store, simulator rigged to
	// fail — cell A must disk-serve (promoting into the tier), and once
	// its job memo is evicted, memory-serve, both byte-identical.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{Store: st2, Workers: 1, MaxJobs: 1, CacheEntries: 4,
		Simulate: func(platform.Kind, workload.Mix, float64, config.Config) (platform.Result, error) {
			return platform.Result{}, errors.New("must serve from a tier")
		}})
	defer svc2.Close()
	diskServed, job, err := svc2.DoJob(Request{Kind: kind, Mix: mixA, Scale: o.Scale, Cfg: o.Cfg})
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "disk" {
		t.Fatalf("fresh process served from %q, want disk", job.Source)
	}
	if got := report.EncodeResult(diskServed); !bytes.Equal(got, want) {
		t.Errorf("disk-tier result differs from fresh simulation:\nfresh: %s\ndisk:  %s", want, got)
	}
	// An unrelated failed job evicts A's memo (error jobs are
	// evictable); A then re-serves from the memory tier it was promoted
	// into by the disk read. The cell must be one no service has
	// simulated, so the rigged simulator actually runs and fails.
	if _, err := svc2.Run(kind, mixB, o.Scale/2, o.Cfg); err == nil {
		t.Fatal("rigged simulator did not fail")
	}
	memServed2, job, err := svc2.DoJob(Request{Kind: kind, Mix: mixA, Scale: o.Scale, Cfg: o.Cfg})
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "memory" {
		t.Fatalf("post-eviction re-request served from %q, want memory (tier %+v)", job.Source, svc2.TierStats())
	}
	if got := report.EncodeResult(memServed2); !bytes.Equal(got, want) {
		t.Errorf("memory-tier result (promoted from disk) differs from fresh simulation:\nfresh:  %s\nmemory: %s", want, got)
	}
}

// TestTierDisabledByDefault pins the opt-in: a zero CacheEntries
// config has no memory tier, so an evicted cell re-serves from disk
// exactly as before the tier existed.
func TestTierDisabledByDefault(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sim := &stubSim{res: platform.Result{IPC: 1}}
	svc := New(Config{Store: st, Workers: 1, MaxJobs: 1, Simulate: sim.fn})
	defer svc.Close()
	req := Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: 0.5, Cfg: config.Default()}
	if _, err := svc.Do(req); err != nil {
		t.Fatal(err)
	}
	other := req
	other.Scale = 0.25
	if _, err := svc.Do(other); err != nil {
		t.Fatal(err)
	}
	if _, job, err := svc.DoJob(req); err != nil || job.Source != "disk" {
		t.Fatalf("tier-less re-request: source %q err %v, want disk", job.Source, err)
	}
	if ts := svc.TierStats(); ts.Capacity != 0 || ts.Hits != 0 {
		t.Errorf("disabled tier reports %+v", ts)
	}
}

// TestAdmissionBound: past MaxQueue pending simulations, new cells
// are refused with ErrOverloaded — but coalesced attaches and
// completed-cell hits are always admitted, and draining the queue
// restores admission.
func TestAdmissionBound(t *testing.T) {
	sim := &stubSim{gate: make(chan struct{}), started: make(chan struct{}, 1), res: platform.Result{IPC: 1}}
	svc := New(Config{Workers: 1, MaxQueue: 2, Simulate: sim.fn})
	defer svc.Close()

	cell := func(scale float64) Request {
		return Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: scale, Cfg: config.Default()}
	}
	// Cell 1 occupies the worker; cells 2 and 3 fill the queue.
	id1 := submit(t, svc, cell(1))
	<-sim.started
	for i, sc := range []float64{2, 3} {
		if _, _, err := svc.SubmitWait(context.Background(), cell(sc), 0); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}

	// A fourth distinct cell would grow the queue past the bound.
	if _, _, err := svc.SubmitWait(context.Background(), cell(4), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past the bound: err = %v, want ErrOverloaded", err)
	}
	if n := svc.Rejected(); n != 1 {
		t.Errorf("Rejected() = %d, want 1", n)
	}
	// Coalescing onto queued or running work does not grow the queue
	// and must be admitted at full load.
	for _, sc := range []float64{1, 2, 3} {
		if _, _, err := svc.SubmitWait(context.Background(), cell(sc), 0); err != nil {
			t.Errorf("coalesced attach at scale %v rejected: %v", sc, err)
		}
	}

	// Drain: each gate release lets the single worker finish one job.
	go func() {
		for i := 0; i < 3; i++ {
			<-sim.started
		}
	}()
	close(sim.gate)
	if _, err := await(t, svc, id1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Sims < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: stats %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// The backlog is gone; a new cell and a completed-cell hit are both
	// admitted again.
	if _, err := svc.Do(cell(4)); err != nil {
		t.Errorf("post-drain submit: %v", err)
	}
	if _, err := svc.Do(cell(1)); err != nil {
		t.Errorf("post-drain memo hit: %v", err)
	}
}

// TestRetryAfterBounds pins the estimator's clamp: a cold service
// (no simulation has finished) answers the 1s floor, and the
// estimate never exceeds the 5-minute ceiling.
func TestRetryAfterBounds(t *testing.T) {
	sim := &stubSim{res: platform.Result{IPC: 1}}
	svc := New(Config{Workers: 1, MaxQueue: 1, Simulate: sim.fn})
	defer svc.Close()
	if got := svc.RetryAfter(); got != time.Second {
		t.Errorf("cold RetryAfter = %v, want the 1s floor", got)
	}
	if _, err := svc.Do(Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: 0.5, Cfg: config.Default()}); err != nil {
		t.Fatal(err)
	}
	if got := svc.RetryAfter(); got < time.Second || got > 5*time.Minute {
		t.Errorf("RetryAfter = %v, want within [1s, 5m]", got)
	}
}

// TestAPIAdmissionControl is the HTTP satellite: an overloaded
// service answers 429 with a positive integral Retry-After header on
// both the sync and async run paths, and recovers to 200 once the
// backlog drains.
func TestAPIAdmissionControl(t *testing.T) {
	sim := &stubSim{gate: make(chan struct{}), started: make(chan struct{}, 1), res: platform.Result{IPC: 2}}
	svc := New(Config{Workers: 1, MaxQueue: 1, Simulate: sim.fn})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	// Occupy the worker (async, so the test never blocks) and fill the
	// one queue slot.
	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async run: %d (%s)", resp.StatusCode, doc["error"])
	}
	<-sim.started
	resp, doc = postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.25,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling async run: %d (%s)", resp.StatusCode, doc["error"])
	}

	// Overloaded: both paths answer 429 with a Retry-After the client
	// can sleep on.
	for _, body := range []string{
		`{"platform":"ZnG","mix":"betw-back","scale":0.125,"async":true}`,
		`{"platform":"ZnG","mix":"betw-back","scale":0.0625}`,
	} {
		resp, doc = postRun(t, srv.URL, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overloaded run %s: status %d (%s), want 429", body, resp.StatusCode, doc["error"])
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatal("429 without a Retry-After header")
		}
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
			t.Fatalf("Retry-After = %q, want a positive integral second count", ra)
		}
		if len(doc["error"]) == 0 {
			t.Error("429 body carries no error document")
		}
	}

	// Drain and recover: releasing the gate lets the worker finish
	// both jobs; the service must then admit (and answer) again.
	go func() { <-sim.started }()
	close(sim.gate)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Sims < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	resp, doc = postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.125}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain run: %d (%s), want 200", resp.StatusCode, doc["error"])
	}
	// The rejections surface in /metrics.
	var m metricsDoc
	getJSON(t, srv.URL+"/metrics", &m)
	if m.JobsRejected != 2 {
		t.Errorf("jobs_rejected = %d, want 2", m.JobsRejected)
	}
	if m.Latency == nil || m.Latency["POST /v1/run"].Count == 0 {
		t.Errorf("latency map missing the run endpoint: %+v", m.Latency)
	}
}

// TestAPIMetricsTierGauges: the tier gauges and latency summaries
// surface in /metrics with the tier enabled.
func TestAPIMetricsTierGauges(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: st, Workers: 1, MaxJobs: 1, CacheEntries: 8, Simulate: fixedSim(1.5)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	// Two cells evict each other's job memos (MaxJobs 1), so the third
	// request is a memory-tier hit.
	for _, body := range []string{
		`{"platform":"ZnG","mix":"betw-back","scale":0.5}`,
		`{"platform":"ZnG","mix":"betw-back","scale":0.25}`,
	} {
		if resp, doc := postRun(t, srv.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s: %d (%s)", body, resp.StatusCode, doc["error"])
		}
	}
	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tier-hit run: %d (%s)", resp.StatusCode, doc["error"])
	}
	var job JobInfo
	if err := json.Unmarshal(doc["job"], &job); err != nil {
		t.Fatal(err)
	}
	if job.Source != "memory" {
		t.Fatalf("job source = %q, want memory", job.Source)
	}

	var m metricsDoc
	getJSON(t, srv.URL+"/metrics", &m)
	if m.TierCapacity != 8 || m.TierHits != 1 || m.TierEntries == 0 {
		t.Errorf("tier gauges = capacity %d hits %d entries %d, want 8/1/>0", m.TierCapacity, m.TierHits, m.TierEntries)
	}
	if m.MemoryHits != 1 {
		t.Errorf("memory_hits = %d, want the tier serve counted", m.MemoryHits)
	}
	if m.Latency["sim"].Count != 2 {
		t.Errorf("latency.sim count = %d, want 2", m.Latency["sim"].Count)
	}
}

// TestNegativeCacheServesRepeatFailures: a deterministic simulation
// failure whose job retention evicted is re-served from the tier's
// negative entry — same error text, zero re-simulation.
func TestNegativeCacheServesRepeatFailures(t *testing.T) {
	mixA := testMix(t, "solo-bfs1")
	mixB := testMix(t, "solo-gaus")
	cfg := config.Default()
	sims := 0
	svc := New(Config{Workers: 1, MaxJobs: 1, CacheEntries: 4,
		Simulate: func(kind platform.Kind, mix workload.Mix, scale float64, c config.Config) (platform.Result, error) {
			sims++
			if mix.ID() == mixA.ID() {
				return platform.Result{}, errors.New("zng: apps exceed SMs")
			}
			return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
		}})
	defer svc.Close()

	if _, err := svc.Run(platform.ZnG, mixA, 0.5, cfg); err == nil || err.Error() != "zng: apps exceed SMs" {
		t.Fatalf("first run err = %v, want the simulation failure", err)
	}
	// Cell B pushes retention past the bound: A's failed job (evictable
	// unconditionally) is dropped, leaving only the tier's negative entry.
	if _, err := svc.Run(platform.ZnG, mixB, 0.5, cfg); err != nil {
		t.Fatal(err)
	}
	if ts := svc.TierStats(); ts.Negatives != 1 {
		t.Fatalf("tier negatives = %d, want 1 (stats %+v)", ts.Negatives, ts)
	}

	_, job, err := svc.DoJob(Request{Kind: platform.ZnG, Mix: mixA, Scale: 0.5, Cfg: cfg})
	if err == nil || err.Error() != "zng: apps exceed SMs" {
		t.Fatalf("replayed err = %v, want the original failure text", err)
	}
	var neg *restier.Negative
	if !errors.As(err, &neg) {
		t.Errorf("replayed error is %T, want a typed *restier.Negative", err)
	}
	if job.State != StateError || job.Source != "memory" {
		t.Errorf("replayed job = %+v, want an error job served from memory", job)
	}
	if sims != 2 {
		t.Errorf("simulator ran %d times, want 2 (the repeat failure must not re-simulate)", sims)
	}
	if st := svc.Stats(); st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want 1 memory hit for the negative serve", st)
	}
}
