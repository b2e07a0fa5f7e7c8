package remote_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/report"
	"zng/internal/simsvc"
	"zng/internal/workload"
)

// newPeer boots a real zngd handler (the same simsvc.NewHandler the
// daemon serves) over a stub or real simulator.
func newPeer(t testing.TB, sim simsvc.SimFunc, workers int) (*httptest.Server, *simsvc.Service) {
	t.Helper()
	svc := simsvc.New(simsvc.Config{Workers: workers, Simulate: sim})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(simsvc.NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)
	return srv, svc
}

func testMix(t testing.TB, name string) workload.Mix {
	t.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClientRunRoundTrip: the client is a Runner against a live zngd
// handler — the cell's full configuration travels with the request
// and the peer's result document comes back as the peer encoded it,
// whichever alias of the cell asked.
func TestClientRunRoundTrip(t *testing.T) {
	var (
		mu      sync.Mutex
		gotCfg  config.Config
		gotMix  string
		gotKind platform.Kind
	)
	srv, _ := newPeer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		mu.Lock()
		gotCfg, gotMix, gotKind = cfg, mix.ID(), kind
		mu.Unlock()
		return platform.Result{Kind: kind, Workload: mix.ID(), IPC: 3.5, Cycles: 100, Insts: 350}, nil
	}, 1)

	c := remote.NewClient(srv.URL)
	// A perturbed config must reach the peer's simulator exactly.
	cfg := config.Default()
	cfg.Flash.Channels = 8
	cfg.Prefetch.HighWaste = 0.5
	mix := testMix(t, "consol-2") // aliases bfs1-gaus
	res, err := c.Run(platform.ZnG, mix, 0.25, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotKind != platform.ZnG || gotMix != "bfs1+gaus" {
		t.Errorf("peer simulated (%v, %q)", gotKind, gotMix)
	}
	if gotCfg != cfg {
		t.Errorf("peer config diverged from the caller's:\n%+v\n%+v", gotCfg, cfg)
	}
	if res.IPC != 3.5 || res.Workload != "bfs1+gaus" || res.Kind != platform.ZnG {
		t.Errorf("result = %+v, want IPC 3.5 labeled bfs1+gaus", res)
	}
}

// TestClientErrors: a simulation failure reported by the peer is a
// plain error; a dead peer is a PeerError the dispatcher can route
// around.
func TestClientErrors(t *testing.T) {
	srv, _ := newPeer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{}, errors.New("simulation deadlocked at tick 42")
	}, 1)
	c := remote.NewClient(srv.URL)
	_, err := c.Run(platform.ZnG, testMix(t, "solo-bfs1"), 0.25, config.Default())
	var pe *remote.PeerError
	if err == nil || errors.As(err, &pe) {
		t.Errorf("simulation failure = %v, want a non-peer error", err)
	}
	if !strings.Contains(err.Error(), "deadlocked") {
		t.Errorf("error lost the peer's message: %v", err)
	}

	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	_, err = remote.NewClient(deadURL).Run(platform.ZnG, testMix(t, "solo-bfs1"), 0.25, config.Default())
	if !errors.As(err, &pe) {
		t.Errorf("dead peer error = %v, want PeerError", err)
	}
}

// TestDispatcherFailover: with one live and one draining peer (every
// request answered 503), every cell still lands exactly once — on the
// live peer. Each 503 re-routes its cell, and the draining peer then
// sits out its cooldown: later cells never reach it.
func TestDispatcherFailover(t *testing.T) {
	live, svc := newPeer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1.5}, nil
	}, 2)
	var refused atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refused.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining"}`))
	}))
	t.Cleanup(draining.Close)

	d, err := remote.NewDispatcher([]string{draining.URL, live.URL}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{Platforms: []string{"ZnG", "HybridGPU"}, Scenarios: []string{"solo-bfs1", "solo-gaus"}, Scales: []float64{0.5}}
	out, err := campaign.Executor{Runner: d, Workers: 2}.Execute(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatalf("campaign failed despite a live peer: %v", err)
	}
	if svc.Stats().Sims != 4 {
		t.Errorf("live peer simulated %d cells, want 4", svc.Stats().Sims)
	}
	// Only cells picked before the first 503 came back can reach the
	// draining peer: at most one per executor worker.
	n := refused.Load()
	if n == 0 || n > 2 {
		t.Errorf("draining peer saw %d requests, want 1 or 2", n)
	}
	if got := d.Reassigned(); got != uint64(n) {
		t.Errorf("Reassigned = %d, want one per refused request (%d)", got, n)
	}
	// Cooling down, the draining peer is offered no further cell.
	if _, err := d.Run(platform.ZnG, testMix(t, "solo-pr"), 0.5, config.Default()); err != nil {
		t.Fatal(err)
	}
	if refused.Load() != n {
		t.Errorf("a cell reached the draining peer during its cooldown")
	}
}

// TestDispatcherAllPeersDown: when every peer faults the cell fails
// with the joined peer errors rather than hanging.
func TestDispatcherAllPeersDown(t *testing.T) {
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	d, err := remote.NewDispatcher([]string{deadURL}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run(platform.ZnG, testMix(t, "solo-bfs1"), 0.5, config.Default())
	if err == nil || !strings.Contains(err.Error(), "all 1 peers failed") {
		t.Errorf("error = %v, want all-peers failure", err)
	}
}

// TestDistributedCampaignEqualsLocal is the acceptance criterion: a
// campaign fanned out across two real zngd peers (each running the
// real simulator) produces a result matrix byte-identical to the same
// campaign executed locally through experiments.NewMemo(), every cell
// is simulated exactly once across the fleet with no re-routing, and
// both peers simulated at least one cell.
func TestDistributedCampaignEqualsLocal(t *testing.T) {
	peerA, svcA := newPeer(t, nil, 1)
	peerB, svcB := newPeer(t, nil, 1)

	d, err := remote.NewDispatcher([]string{peerA.URL, peerB.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{
		Name:      "dist",
		Platforms: []string{"GDDR5", "Optane"},
		Scenarios: []string{"solo-bfs1", "solo-gaus"},
		Scales:    []float64{0.05},
	}
	distributed, err := campaign.Executor{Runner: d, Workers: 2}.Execute(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := distributed.Err(); err != nil {
		t.Fatal(err)
	}

	local, err := campaign.Executor{Runner: experiments.NewMemo(), Workers: 2}.Execute(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Err(); err != nil {
		t.Fatal(err)
	}

	// Byte-for-byte under the canonical result encoding, cell by cell.
	for i := range local.Cells {
		a := report.EncodeResult(local.Cells[i].Result)
		b := report.EncodeResult(distributed.Cells[i].Result)
		if !bytes.Equal(a, b) {
			t.Errorf("cell %d (%s on %s) differs:\nlocal:  %s\nremote: %s",
				i, local.Cells[i].Cell.Kind, local.Cells[i].Cell.Mix.Name, a, b)
		}
	}
	// The folded matrices agree too.
	if a, b := report.JSON(local.Table()), report.JSON(distributed.Table()); !bytes.Equal(a, b) {
		t.Errorf("matrix differs:\nlocal:\n%s\nremote:\n%s", a, b)
	}

	// Every cell landed exactly once, spread across both peers: the
	// grid's cells are distinct, so each peer request is one
	// simulation, and no peer fault re-routed a cell.
	a, b := svcA.Stats(), svcB.Stats()
	if total := a.Sims + a.MemoryHits + a.DiskHits + a.Coalesced + b.Sims + b.MemoryHits + b.DiskHits + b.Coalesced; total != uint64(len(spec.Platforms)*len(spec.Scenarios)) {
		t.Errorf("peers served %d cells (%+v, %+v), want %d exactly once each", total, a, b, len(spec.Platforms)*len(spec.Scenarios))
	}
	if a.Sims == 0 || b.Sims == 0 {
		t.Errorf("peer services simulated %d/%d cells, want both > 0", a.Sims, b.Sims)
	}
	if n := d.Reassigned(); n != 0 {
		t.Errorf("%d cells were re-routed between healthy peers", n)
	}
}

// TestDispatcherRoundRobinsSerializedCells: with fully serialized
// execution (one cell in flight at a time) equal-inflight ties must
// rotate across the fleet rather than starving every peer but the
// first.
func TestDispatcherRoundRobinsSerializedCells(t *testing.T) {
	peerA, svcA := newPeer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
	}, 1)
	peerB, svcB := newPeer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
	}, 1)
	d, err := remote.NewDispatcher([]string{peerA.URL, peerB.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{Platforms: []string{"ZnG", "HybridGPU"}, Scenarios: []string{"solo-bfs1", "solo-gaus"}, Scales: []float64{0.5}}
	out, err := campaign.Executor{Runner: d, Workers: 1}.Execute(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if a, b := svcA.Stats().Sims, svcB.Stats().Sims; a != 2 || b != 2 {
		t.Errorf("serialized cells split %d/%d across peers, want 2/2 round-robin", a, b)
	}
}

// TestDispatcherRoutesAroundHungPeer: a peer that accepts connections
// but never answers (wedged, not refused) must surface as a PeerError
// within one client timeout — and the dispatcher then lands the cell
// on a live peer instead of hanging the campaign forever.
func TestDispatcherRoutesAroundHungPeer(t *testing.T) {
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold every request open until the test ends
	}))
	defer hang.Close()
	defer close(release) // LIFO: unwedge the handlers, then Close can drain
	live, svc := newPeer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 2}, nil
	}, 1)

	hungClient := remote.NewClient(hang.URL)
	hungClient.SetTimeout(100 * time.Millisecond)
	start := time.Now()
	_, err := hungClient.Run(platform.ZnG, testMix(t, "solo-bfs1"), 0.5, config.Default())
	var pe *remote.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("hung peer error = %v, want PeerError", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung peer took %v to fault, want about one client timeout", elapsed)
	}

	d, err := remote.NewDispatcher([]string{hang.URL, live.URL}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	d.SetTimeout(100 * time.Millisecond)
	res, err := d.Run(platform.ZnG, testMix(t, "solo-bfs1"), 0.5, config.Default())
	if err != nil || res.IPC != 2 {
		t.Fatalf("dispatcher did not route around the hung peer: %v, %+v", err, res)
	}
	if svc.Stats().Sims != 1 {
		t.Errorf("live peer simulated %d cells, want 1", svc.Stats().Sims)
	}
}

// TestServerWaitCapBelowClientTimeout: a peer never holds a long poll
// past a default client's timeout, whatever wait the client asks for.
func TestServerWaitCapBelowClientTimeout(t *testing.T) {
	if simsvc.MaxWait >= remote.DefaultTimeout {
		t.Fatalf("simsvc.MaxWait %v is not below remote.DefaultTimeout %v", simsvc.MaxWait, remote.DefaultTimeout)
	}
}

// TestClientOneRequestPerQuickCell: a cell that finishes inside the
// submit's wait costs exactly one request, the POST, and no poll. A
// cell gated past the wait finishes through long-polled GETs and
// returns within a small bound of the gate opening, not a sleep step
// later.
func TestClientOneRequestPerQuickCell(t *testing.T) {
	gate := make(chan struct{})
	gated := testMix(t, "solo-gaus")
	svc := simsvc.New(simsvc.Config{Workers: 2, Simulate: func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		if mix.ID() == gated.ID() {
			<-gate
		}
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 4}, nil
	}})
	t.Cleanup(svc.Close)
	// Requests are counted as they complete, so three counted GETs are
	// three polls answered while the cell was still gated.
	var posts, gets atomic.Int64
	h := simsvc.NewHandler(svc, config.Default())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/run":
			posts.Add(1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			gets.Add(1)
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate) // unwedge the gated cell so Close can drain
		}
	})

	quick := remote.NewClient(srv.URL)
	if res, err := quick.Run(platform.ZnG, testMix(t, "solo-bfs1"), 0.5, config.Default()); err != nil || res.IPC != 4 {
		t.Fatalf("quick cell = %+v, %v", res, err)
	}
	if p, g := posts.Load(), gets.Load(); p != 1 || g != 0 {
		t.Fatalf("quick cell cost %d POSTs and %d GETs, want 1 and 0", p, g)
	}

	// A 200 ms timeout asks the peer to wait 100 ms per request, so the
	// gated cell outlasts the submit and several long polls.
	slow := remote.NewClient(srv.URL)
	slow.SetTimeout(200 * time.Millisecond)
	type outcome struct {
		res platform.Result
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := slow.Run(platform.ZnG, gated, 0.5, config.Default())
		done <- outcome{res, err, time.Now()}
	}()
	base := gets.Load()
	deadline := time.Now().Add(10 * time.Second)
	for gets.Load() < base+3 {
		if time.Now().After(deadline) {
			t.Fatalf("gated cell made %d polls in 10 s, want 3", gets.Load()-base)
		}
		time.Sleep(time.Millisecond)
	}
	opened := time.Now()
	close(gate)
	out := <-done
	if out.err != nil || out.res.IPC != 4 {
		t.Fatalf("gated cell = %+v, %v", out.res, out.err)
	}
	if lag := out.at.Sub(opened); lag > 100*time.Millisecond {
		t.Errorf("gated cell returned %v after its gate opened, want within 100 ms", lag)
	}
	if p := posts.Load(); p != 2 {
		t.Errorf("%d POSTs for two cells, want 2", p)
	}
}
