// Fault-path integration tests: real zngd handlers as fleet workers
// (the same simsvc.NewHandler the daemon serves), a coordinator
// dispatching campaigns over them, and the failure modes the fleet
// exists to ride out — a worker killed mid-cell, a coordinator
// restarting mid-campaign, heartbeat expiry and rejoin. External test
// package because simsvc imports fleet.
package fleet_test

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/fleet"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/simsvc"
	"zng/internal/store"
	"zng/internal/workload"
)

// runnerFunc adapts a function to campaign.Runner.
type runnerFunc func(platform.Kind, workload.Mix, float64, config.Config) (platform.Result, error)

func (f runnerFunc) Run(k platform.Kind, m workload.Mix, s float64, c config.Config) (platform.Result, error) {
	return f(k, m, s, c)
}

// detSim is the deterministic cell function every runner in these
// tests shares, so any mix of peers, local fallback and store replay
// must fold the byte-identical matrix.
func detSim(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return platform.Result{
		Kind:     kind,
		Workload: mix.Name,
		IPC:      float64(kind)*10 + scale*float64(len(mix.ID())),
		Cycles:   1000,
		Insts:    500,
	}, nil
}

// newWorker boots a zngd worker: a real simsvc handler over sim.
func newWorker(t testing.TB, sim simsvc.SimFunc) (*httptest.Server, *simsvc.Service) {
	t.Helper()
	svc := simsvc.New(simsvc.Config{Workers: 2, Simulate: sim})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(simsvc.NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)
	return srv, svc
}

func integrationSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "fleet-faults",
		Platforms: []string{"ZnG", "HybridGPU"},
		Scenarios: []string{"betw-back", "solo-bfs1"},
		Scales:    []float64{0.5, 1},
	}
}

// referenceTable folds spec on a plain local executor — the matrix
// every fleet execution must reproduce byte-for-byte.
func referenceTable(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	exec := campaign.Executor{Runner: runnerFunc(detSim), Workers: 2}
	run, err := exec.Start(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	out := run.Wait()
	if out.Err() != nil {
		t.Fatal(out.Err())
	}
	return report.JSON(out.Table())
}

// waitFor polls cond to true within a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A worker that wedges and has its connections torn down mid-cell (the
// kill -9 shape: in-flight requests die, nothing deregisters) must not
// fail the campaign: the dispatcher faults the peer, the cell
// reassigns, and the folded matrix is byte-identical to an
// uninterrupted local run.
func TestWorkerKilledMidCell(t *testing.T) {
	gate := make(chan struct{})
	hit := make(chan struct{}, 16)
	// victim accepts cells and never answers them — a wedged process.
	victim, _ := newWorker(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		select {
		case hit <- struct{}{}:
		default:
		}
		<-gate
		return detSim(kind, mix, scale, cfg)
	})
	t.Cleanup(func() { close(gate) }) // unwedge so Close can drain
	healthy, _ := newWorker(t, detSim)

	fc := fleet.New(fleet.Config{
		Local:    runnerFunc(detSim),
		Workers:  2,
		Base:     config.Default(),
		Timeout:  500 * time.Millisecond,
		Cooldown: time.Minute, // once faulted, the victim stays benched
	})
	if _, err := fc.Register(victim.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Register(healthy.URL); err != nil {
		t.Fatal(err)
	}

	c, err := fc.Campaigns().Start(integrationSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The moment the victim has a cell in flight, kill it: tear down
	// its connections and its listener, the way kill -9 leaves a
	// worker (its job never finishes, its port stops answering — the
	// dispatcher's next poll faults and the cell reassigns). The
	// wedged simulation goroutine drains at cleanup via gate.
	waitFor(t, "victim to receive a cell", func() bool {
		select {
		case <-hit:
			return true
		default:
			return false
		}
	})
	victim.CloseClientConnections()
	victim.Close()

	out := c.Wait()
	if out.Err() != nil {
		t.Fatal(out.Err())
	}
	if got, want := report.JSON(out.Table()), referenceTable(t, integrationSpec()); !bytes.Equal(got, want) {
		t.Fatalf("matrix after worker kill differs from reference:\n%s\nvs\n%s", got, want)
	}
	if g := fc.Gauges(); g.CellsReassigned == 0 {
		t.Fatalf("cells_reassigned = 0, want > 0 after killing a worker mid-cell (%+v)", g)
	}
}

// A coordinator that dies mid-campaign leaves a spec plus part of the
// campaign's cells in the store. A fresh coordinator over the same
// directory resumes by id: stored cells are served from the store with
// zero re-simulation, only the remainder runs, and the matrix is
// byte-identical to an uninterrupted run.
func TestCoordinatorRestartMidCampaign(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{
		Name:      "restart",
		Platforms: []string{"ZnG"},
		Scenarios: []string{"betw-back", "solo-gaus"},
		Scales:    []float64{0.5, 1},
	}

	// Coordinator 1: solo-gaus cells wedge forever — the campaign can
	// never finish in this process, only its betw-back half is stored.
	gate := make(chan struct{})
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := simsvc.New(simsvc.Config{Workers: 2, Store: st1,
		Simulate: func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
			if mix.Name == "solo-gaus" {
				<-gate
			}
			return detSim(kind, mix, scale, cfg)
		}})
	t.Cleanup(svc1.Close)
	fc1 := fleet.New(fleet.Config{Local: svc1, Store: st1, Workers: 2, Base: config.Default()})
	c1, err := fc1.Campaigns().Start(spec)
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	// Unblock the wedged cells and let campaign 1 finish storing
	// before TempDir removal, or its late writes race the cleanup.
	t.Cleanup(func() { close(gate); c1.Wait() })
	id := c1.ID
	waitFor(t, "half the campaign to be stored", func() bool {
		n, _ := st1.Entries()
		return n >= 2
	})
	// Coordinator 1 is now "dead": we simply stop looking at it. Its
	// two wedged cells stay in flight and are not stored until cleanup.

	// Coordinator 2: fresh process, same store directory, healthy sim.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := simsvc.New(simsvc.Config{Workers: 2, Store: st2, Simulate: detSim})
	t.Cleanup(svc2.Close)
	fc2 := fleet.New(fleet.Config{Local: svc2, Store: st2, Workers: 2, Base: config.Default()})
	c2, err := fc2.Campaigns().Resume(id)
	if err != nil {
		t.Fatal(err)
	}
	out := c2.Wait()
	if out.Err() != nil {
		t.Fatal(out.Err())
	}
	if got := svc2.Stats().Sims; got != 2 {
		t.Fatalf("resume ran %d simulations, want exactly the 2 unstored cells", got)
	}
	if g := fc2.Gauges(); g.CampaignsResumed != 1 {
		t.Fatalf("campaigns_resumed = %d, want 1", g.CampaignsResumed)
	}

	// Byte-identical to a never-interrupted run of the same spec.
	exec := campaign.Executor{Runner: runnerFunc(detSim), Workers: 2}
	ref, err := exec.Start(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	refOut := ref.Wait()
	if refOut.Err() != nil {
		t.Fatal(refOut.Err())
	}
	if got, want := report.JSON(out.Table()), report.JSON(refOut.Table()); !bytes.Equal(got, want) {
		t.Fatalf("resumed matrix differs from uninterrupted reference:\n%s\nvs\n%s", got, want)
	}
}

// A graceful shutdown closes the coordinator's local service while
// campaign cells are still queued on it: those cells fail with
// simsvc.ErrClosed, the service's answer rather than the cell's. A
// fresh coordinator over the same directory resumes the campaign by
// id, simulates exactly the cells the store lacks, and finishes with
// no failed cell and the matrix of an uninterrupted run.
func TestResumeAfterServiceShutdown(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{
		Name:      "shutdown",
		Platforms: []string{"ZnG"},
		Scenarios: []string{"betw-back", "solo-bfs1", "solo-gaus", "solo-pr"},
		Scales:    []float64{0.5},
	}

	// Coordinator 1: one simulation slot, held until gate closes, so
	// one cell runs and the other three wait in the service's queue.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	running := make(chan struct{}, 1)
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := simsvc.New(simsvc.Config{Workers: 1, Store: st1,
		Simulate: func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
			select {
			case running <- struct{}{}:
			default:
			}
			<-gate
			return detSim(kind, mix, scale, cfg)
		}})
	fc1 := fleet.New(fleet.Config{Local: svc1, Store: st1, Workers: 4, Base: config.Default()})
	// Cleanups run last-registered first: the slot is released before
	// Close waits for it, however the test ends.
	t.Cleanup(svc1.Close)
	t.Cleanup(release)
	c1, err := fc1.Campaigns().Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	waitFor(t, "three cells to queue behind the running one", func() bool { return svc1.Load() == 4 })
	closed := make(chan struct{})
	go func() { svc1.Close(); close(closed) }()
	waitFor(t, "the queued cells to fail", func() bool { return c1.Progress().Failed == 3 })
	release()
	<-closed
	out1 := c1.Wait()
	if p := c1.Progress(); p.Done != 1 || p.Failed != 3 {
		t.Fatalf("first pass: %d done, %d failed; want 1 and 3", p.Done, p.Failed)
	}
	for _, cr := range out1.Cells {
		if cr.Err != nil && cr.Err.Error() != simsvc.ErrClosed.Error() {
			t.Fatalf("first pass failed with %v, want %v", cr.Err, simsvc.ErrClosed)
		}
	}
	stored, err := st1.Entries()
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator 2: fresh process, same store directory, healthy sim.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := simsvc.New(simsvc.Config{Workers: 2, Store: st2, Simulate: detSim})
	t.Cleanup(svc2.Close)
	fc2 := fleet.New(fleet.Config{Local: svc2, Store: st2, Workers: 2, Base: config.Default()})
	c2, err := fc2.Campaigns().Resume(c1.ID)
	if err != nil {
		t.Fatal(err)
	}
	out := c2.Wait()
	if f := out.Failed(); f != 0 {
		t.Fatalf("resume finished with %d failed cells, want 0: %v", f, out.Err())
	}
	if got, want := svc2.Stats().Sims, uint64(len(c2.Cells())-stored); got != want {
		t.Fatalf("resume ran %d simulations, want the %d cells the store lacks", got, want)
	}
	if got, want := report.JSON(out.Table()), referenceTable(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("resumed matrix differs from uninterrupted reference:\n%s\nvs\n%s", got, want)
	}
}

// The agent end to end against the real API: register, heartbeat with
// live load, expire when stopped, rejoin under a fresh id when a new
// agent starts — churn the roster and the coordinator tracks it.
func TestAgentExpiryAndRejoin(t *testing.T) {
	svc := simsvc.New(simsvc.Config{Workers: 1, Simulate: detSim})
	t.Cleanup(svc.Close)
	fc := fleet.New(fleet.Config{Local: svc, Workers: 1, Base: config.Default(), TTL: 150 * time.Millisecond})
	srv := httptest.NewServer(simsvc.NewHandler(svc, config.Default(), simsvc.WithFleet(fc)))
	t.Cleanup(srv.Close)

	a1 := fleet.StartAgent(srv.URL, "127.0.0.1:7001", func() int { return 5 })
	var firstID string
	waitFor(t, "agent to register and heartbeat its load", func() bool {
		for _, p := range fc.Peers() {
			if p.Load == 5 {
				firstID = p.ID
				return true
			}
		}
		return false
	})
	a1.Stop()
	waitFor(t, "stopped agent to expire", func() bool { return len(fc.Peers()) == 0 })
	if g := fc.Gauges(); g.PeersDead == 0 {
		t.Fatalf("peers_dead = 0, want > 0 after expiry (%+v)", g)
	}

	a2 := fleet.StartAgent(srv.URL, "127.0.0.1:7001", nil)
	defer a2.Stop()
	waitFor(t, "replacement agent to rejoin", func() bool { return len(fc.Peers()) == 1 })
	if got := fc.Peers()[0].ID; got == firstID {
		t.Fatalf("rejoined peer kept expired id %q, want a fresh identity", got)
	}
}
