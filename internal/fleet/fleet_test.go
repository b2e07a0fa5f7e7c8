package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zng/internal/campaign"
	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/report"
	"zng/internal/store"
	"zng/internal/workload"
)

// stubRunner is a deterministic local runner: the result is a pure
// function of the cell, so matrices fold byte-identically across
// processes — the property every resume test leans on. failWith makes
// chosen scenarios fail (deterministically, or with a transport-shaped
// PeerError); no failure is ever stored.
type stubRunner struct {
	mu       sync.Mutex
	calls    int              // guarded by mu
	byMix    map[string]int   // guarded by mu; mix ID -> calls
	failWith map[string]error // mix ID -> error to return
}

func (r *stubRunner) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	r.mu.Lock()
	r.calls++
	if r.byMix == nil {
		r.byMix = map[string]int{}
	}
	r.byMix[mix.ID()]++
	err := r.failWith[mix.ID()]
	r.mu.Unlock()
	if err != nil {
		return platform.Result{}, err
	}
	return platform.Result{
		Kind:     kind,
		Workload: mix.Name,
		IPC:      float64(kind) + scale*float64(len(mix.ID())),
		Cycles:   1000,
		Insts:    500,
	}, nil
}

func (r *stubRunner) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "fleet-test",
		Platforms: []string{"ZnG", "HybridGPU"},
		Scenarios: []string{"solo-bfs1", "solo-gaus"},
		Scales:    []float64{0.25, 0.5},
	}
}

// testID is CampaignID over the Table I configuration, the base every
// test coordinator runs.
func testID(t *testing.T, spec campaign.Spec) string {
	t.Helper()
	id, err := CampaignID(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func newTestCoordinator(t *testing.T, dir string, local campaign.Runner) *Coordinator {
	t.Helper()
	var st *store.Store
	if dir != "" {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st = s
	}
	return New(Config{Local: local, Store: st, Workers: 2, Base: config.Default()})
}

func tableBytes(t *testing.T, c *campaign.Campaign) []byte {
	t.Helper()
	out := c.Outcome()
	if out == nil {
		t.Fatal("campaign has no outcome")
	}
	return report.JSON(out.Table())
}

// TestLoadSpecRejectsUnknownKeys: a checkpointed spec with a key its
// schema does not have, such as an override knob of schema 1, fails to
// load and names the key, rather than resuming as the base
// configuration with the knob dropped.
func TestLoadSpecRejectsUnknownKeys(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(st)
	id := testID(t, testSpec())
	if err := os.MkdirAll(ck.dir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	for doc, want := range map[string]string{
		`{"v":1,"spec":{"platforms":["ZnG"],"scenarios":["solo-bfs1"],"overrides":[{"l2_mult":8}]}}`:     `unknown field "l2_mult"`,
		`{"v":2,"spec":{"platforms":["ZnG"],"scenarios":["solo-bfs1"],"overrides":[{"reg_net":"NiF"}]}}`: `unknown field "reg_net"`,
		`{"v":2,"spec":{"platforms":["ZnG"],"scenarios":["solo-bfs1"],"scale":[0.5]}}`:                   `unknown field "scale"`,
		`{"v":1,"spec":{"platforms":["ZnG"],"scenarios":["solo-bfs1"]}}`:                                 "schema v1, want v3",
		`{"v":2,"spec":{"platforms":["ZnG"],"scenarios":["solo-bfs1"]}}`:                                 "schema v2, want v3",
	} {
		if err := os.WriteFile(filepath.Join(ck.dir(id), "spec.json"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ck.LoadSpec(id); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: LoadSpec error %v, want one containing %q", doc, err, want)
		}
	}
}

// TestCampaignIDContentAddressed: the id is a pure function of the
// campaign's content, its base configuration included. Spellings of one override that decode alike (key
// case, whitespace, key order) expand to cells with one key each, so
// they name one campaign; specs whose cells differ name two, and an
// override that does not apply names none.
func TestCampaignIDContentAddressed(t *testing.T) {
	spec := testSpec()
	id := testID(t, spec)
	if len(id) != 64 {
		t.Fatalf("id %q is not a hex sha256", id)
	}
	if testID(t, testSpec()) != id {
		t.Error("identical specs derive different ids")
	}
	other := testSpec()
	other.Scales = []float64{1}
	if testID(t, other) == id {
		t.Error("different specs collide")
	}
	base := config.Default()
	base.Flash.Channels = 8
	if got, err := CampaignID(spec, base); err != nil || got == id {
		t.Errorf("one spec over two base configurations names one campaign (%v)", err)
	}

	withOverride := func(doc string) campaign.Spec {
		spec := testSpec()
		spec.Overrides = []campaign.Override{{}, {Name: "flash", Config: json.RawMessage(doc)}}
		return spec
	}
	for _, same := range [][2]string{
		{`{"Flash":{"Channels":8}}`, `{"flash":{"channels":8}}`},
		{`{"Flash":{"Channels":8}}`, " { \"Flash\" :\n\t{ \"Channels\" : 8 } } "},
		{`{"Flash":{"Channels":8},"L2STT":{"Sets":8192}}`, `{"L2STT":{"Sets":8192},"Flash":{"Channels":8}}`},
	} {
		a, b := withOverride(same[0]), withOverride(same[1])
		ca, err := a.Expand(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Expand(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		for i := range ca {
			if ca[i].Key != cb[i].Key {
				t.Fatalf("%s and %s expand to different cells", same[0], same[1])
			}
		}
		if testID(t, a) != testID(t, b) {
			t.Errorf("%s and %s name two campaigns", same[0], same[1])
		}
	}
	if testID(t, withOverride(`{"Flash":{"Channels":4}}`)) == testID(t, withOverride(`{"Flash":{"Channels":8}}`)) {
		t.Error("Channels 4 and 8 name one campaign")
	}
	if id, err := CampaignID(withOverride(`{"Flash":{"Bogus":8}}`), config.Default()); err == nil {
		t.Errorf("an override that does not apply names campaign %s", id)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(st)
	spec := testSpec()
	spec.Overrides = []campaign.Override{{}, {Name: "ch8", Config: json.RawMessage(`{"Flash": {"Channels": 8}}`)}}
	id := testID(t, spec)

	if err := ck.WriteSpec(id, spec); err != nil {
		t.Fatal(err)
	}
	got, err := ck.LoadSpec(id)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(spec)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("spec round-trip mutated:\nwrote %s\nread  %s", a, b)
	}
	if testID(t, got) != id {
		t.Error("reloaded spec derives a different id")
	}

	if got.Overrides[1].Label() != "ch8" || got.Overrides[1].Config == nil {
		t.Errorf("reloaded override = %+v", got.Overrides[1])
	}

	// Unknown ids load a not-exist spec.
	if _, err := ck.LoadSpec("ffff"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unknown spec err = %v, want ErrNotExist", err)
	}

	// The nil checkpointer (no store) is inert.
	var nilCk *Checkpointer
	if err := nilCk.WriteSpec(id, spec); err != nil {
		t.Errorf("nil WriteSpec = %v", err)
	}
	if _, err := nilCk.LoadSpec(id); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("nil LoadSpec err = %v, want ErrNotExist", err)
	}
}

// TestResumeServesStoredCells is the durability core: a finished
// campaign restarted on a fresh coordinator over the same store runs
// zero cells and folds the byte-identical matrix.
func TestResumeServesStoredCells(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	local1 := &stubRunner{}
	co1 := newTestCoordinator(t, dir, local1)
	c1, err := co1.Campaigns().Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out1 := c1.Wait(); out1.Err() != nil {
		t.Fatal(out1.Err())
	}
	want := tableBytes(t, c1)
	ranFirst := local1.Calls()
	if ranFirst != len(c1.Cells()) {
		t.Fatalf("first pass ran %d cells, want %d", ranFirst, len(c1.Cells()))
	}
	if got := testID(t, spec); c1.ID != got {
		t.Errorf("campaign id = %s, want content address %s", c1.ID, got)
	}
	if co1.Gauges().CampaignsResumed != 0 {
		t.Error("fresh campaign counted as resumed")
	}

	// Starting the same spec again on the SAME coordinator is
	// idempotent: the retained campaign comes back, nothing re-runs.
	again, err := co1.Campaigns().Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again != c1 {
		t.Error("re-Start of a live id built a new campaign")
	}

	// A fresh coordinator (new process, same directory) resumes: every
	// cell is served from the store, the local runner never runs.
	local2 := &stubRunner{}
	co2 := newTestCoordinator(t, dir, local2)
	c2, err := co2.Campaigns().Resume(c1.ID)
	if err != nil {
		t.Fatal(err)
	}
	c2.Wait()
	if got := local2.Calls(); got != 0 {
		t.Errorf("resume ran %d cells, want 0 (all stored)", got)
	}
	if g := co2.Gauges(); g.CampaignsResumed != 1 {
		t.Errorf("campaigns_resumed = %d, want 1", g.CampaignsResumed)
	}
	if got := tableBytes(t, c2); !bytes.Equal(got, want) {
		t.Errorf("resumed matrix differs:\nfirst:  %s\nresume: %s", want, got)
	}
}

// TestResumeRunsOnlyTheRemainder: a half-finished campaign — some
// cells stored, one scenario's cells lost to a transport fault —
// resumes running exactly the remainder, and the healed matrix is
// byte-identical to an uninterrupted run.
func TestResumeRunsOnlyTheRemainder(t *testing.T) {
	spec := testSpec()

	// The reference: an uninterrupted local run in its own directory.
	ref := newTestCoordinator(t, t.TempDir(), &stubRunner{})
	cRef, err := ref.Campaigns().Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	cRef.Wait()
	want := tableBytes(t, cRef)

	// Pass 1: solo-gaus cells die with a transport-shaped fault.
	dir := t.TempDir()
	gausID := mixID(t, "solo-gaus")
	local1 := &stubRunner{failWith: map[string]error{
		gausID: &remote.PeerError{Peer: "http://127.0.0.1:1", Err: errors.New("connection refused")},
	}}
	co1 := newTestCoordinator(t, dir, local1)
	c1, err := co1.Campaigns().Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	c1.Wait()
	if f := c1.Outcome().Failed(); f == 0 {
		t.Fatal("transport fault produced no failed cells; the test exercises nothing")
	}
	done := c1.Progress().Done

	// The store holds exactly the successful cells (every cell of the
	// spec has its own key): failures stored nothing.
	if n, err := mustStore(t, dir).Entries(); err != nil || n != done {
		t.Fatalf("store has %d documents (%v), want %d (only successes)", n, err, done)
	}

	// Pass 2: fresh coordinator, healthy runner. Only the faulted
	// cells run; the matrix matches the uninterrupted reference.
	local2 := &stubRunner{}
	co2 := newTestCoordinator(t, dir, local2)
	c2, err := co2.Campaigns().Resume(c1.ID)
	if err != nil {
		t.Fatal(err)
	}
	c2.Wait()
	remainder := len(c2.Cells()) - done
	if got := local2.Calls(); got != remainder {
		t.Errorf("resume ran %d cells, want only the %d-cell remainder", got, remainder)
	}
	if got := tableBytes(t, c2); !bytes.Equal(got, want) {
		t.Errorf("healed matrix differs from uninterrupted run:\nwant %s\ngot  %s", want, got)
	}
	if co2.Gauges().CampaignsResumed != 1 {
		t.Error("partial resume not counted")
	}
}

// TestResumeRerunsFailedCells: a cell that failed deterministically
// is not stored, so a resumed campaign runs it again — and reports the
// same error when it fails again — while its stored cells run no more.
func TestResumeRerunsFailedCells(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	gausID := mixID(t, "solo-gaus")
	simErr := errors.New("zng: apps exceed SMs")

	local1 := &stubRunner{failWith: map[string]error{gausID: simErr}}
	co1 := newTestCoordinator(t, dir, local1)
	c1, err := co1.Campaigns().Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	c1.Wait()
	failed := c1.Progress().Failed
	if failed == 0 {
		t.Fatal("no deterministic failures")
	}
	want := tableBytes(t, c1)

	local2 := &stubRunner{failWith: map[string]error{gausID: simErr}}
	co2 := newTestCoordinator(t, dir, local2)
	c2, err := co2.Campaigns().Resume(c1.ID)
	if err != nil {
		t.Fatal(err)
	}
	c2.Wait()
	// Each failed cell runs once more; no stored cell runs.
	if got, want := local2.Calls(), failed; got != want {
		t.Errorf("resume ran %d cells, want %d: each failed cell once and nothing else", got, want)
	}
	if c2.Progress().Failed != failed {
		t.Errorf("resumed failures = %d, want %d", c2.Progress().Failed, failed)
	}
	for _, cr := range c2.Outcome().Cells {
		if cr.Cell.Mix.ID() == gausID && (cr.Err == nil || cr.Err.Error() != simErr.Error()) {
			t.Errorf("re-run error = %v, want %v", cr.Err, simErr)
		}
	}
	if got := tableBytes(t, c2); !bytes.Equal(got, want) {
		t.Errorf("resumed matrix differs:\nwant %s\ngot  %s", want, got)
	}
}

// TestStoreHitRelabels: a store hit comes back under the name the
// caller asked for, not the one whoever computed the cell stored —
// consol-2 and bfs1-gaus share one cell. Traced, the write records a
// "store.write" span (not simsvc's "store.put") and the hit a
// "dispatch" span with detail "store".
func TestStoreHitRelabels(t *testing.T) {
	local := &stubRunner{}
	tr := obs.New("coordinator", 64, 1)
	st := mustStore(t, t.TempDir())
	co := New(Config{Local: local, Store: st, Base: config.Default(), Tracer: tr})
	computed, alias := testMix(t, "bfs1-gaus"), testMix(t, "consol-2")
	if computed.ID() != alias.ID() {
		t.Fatalf("%s and %s no longer share a cell", computed.Name, alias.Name)
	}
	root := tr.StartRoot("test", "")
	if _, err := co.RunTraced(root.Context(), platform.ZnG, computed, 0.5, config.Default()); err != nil {
		t.Fatal(err)
	}
	res, err := co.RunTraced(root.Context(), platform.ZnG, alias, 0.5, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if local.Calls() != 1 {
		t.Errorf("local calls = %d, want 1 (the alias is a store hit)", local.Calls())
	}
	if res.Workload != alias.Name {
		t.Errorf("store hit labeled %q, want %q", res.Workload, alias.Name)
	}
	spans := map[string]int{}
	for _, r := range tr.Trace(root.Context().Trace) {
		spans[r.Name+"/"+r.Detail]++
	}
	key := cellkey.Key(platform.ZnG, alias.ID(), 0.5, config.Default())
	want := map[string]int{"dispatch/local": 1, "store.write/" + key: 1, "dispatch/store": 1}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
}

// TestHeartbeatExpiryAndRejoin drives the peer lifecycle: register,
// expire by silence, re-register.
func TestHeartbeatExpiryAndRejoin(t *testing.T) {
	co := New(Config{Local: &stubRunner{}, TTL: 40 * time.Millisecond, Base: config.Default()})

	p, err := co.Register("127.0.0.1:19999")
	if err != nil {
		t.Fatal(err)
	}
	if p.ID == "" || p.Addr != "http://127.0.0.1:19999" {
		t.Fatalf("peer = %+v", p)
	}
	if err := co.Heartbeat(p.ID, 3); err != nil {
		t.Fatal(err)
	}
	peers := co.Peers()
	if len(peers) != 1 || peers[0].Load != 3 {
		t.Fatalf("peers = %+v", peers)
	}
	if g := co.Gauges(); g.PeersLive != 1 || g.PeersDead != 0 {
		t.Fatalf("gauges = %+v", g)
	}

	// Silence past the TTL: the peer expires.
	time.Sleep(90 * time.Millisecond)
	if g := co.Gauges(); g.PeersLive != 0 || g.PeersDead != 1 {
		t.Fatalf("after expiry gauges = %+v", g)
	}
	if err := co.Heartbeat(p.ID, 0); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("heartbeat after expiry = %v, want ErrUnknownPeer", err)
	}

	// Rejoin under a fresh id; the same address re-registering replaces
	// rather than duplicates.
	p2, err := co.Register("127.0.0.1:19999")
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID == p.ID {
		t.Error("re-registration reused the dead id")
	}
	if _, err := co.Register("http://127.0.0.1:19999"); err != nil {
		t.Fatal(err)
	}
	if g := co.Gauges(); g.PeersLive != 1 {
		t.Fatalf("same-address double registration: gauges = %+v", g)
	}
	if _, err := co.Register(""); err == nil {
		t.Error("empty address accepted")
	}
}

// TestRegistrationChurnRace hammers register/heartbeat/expiry/snapshot
// from many goroutines with a tiny TTL — the rejoin-churn fault path
// under -race.
func TestRegistrationChurnRace(t *testing.T) {
	co := New(Config{Local: &stubRunner{}, TTL: 5 * time.Millisecond, Base: config.Default()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr := fmt.Sprintf("127.0.0.1:2%04d", g)
			id := ""
			for i := 0; i < 50; i++ {
				if id == "" {
					p, err := co.Register(addr)
					if err != nil {
						t.Error(err)
						return
					}
					id = p.ID
				}
				if err := co.Heartbeat(id, i); err != nil {
					id = "" // expired under us: rejoin
				}
				co.Peers()
				co.Gauges()
				if i%10 == 9 {
					time.Sleep(7 * time.Millisecond) // force an expiry
				}
			}
		}()
	}
	wg.Wait()
	// Every goroutine slept past the TTL at least once, so churn
	// actually happened.
	if g := co.Gauges(); g.PeersDead == 0 {
		t.Errorf("churn produced no expiries: %+v", g)
	}
}

// TestRunFallsBackToLocal: an empty fleet — and a fleet whose only
// peer is unreachable — both serve cells through the local runner
// instead of failing the campaign.
func TestRunFallsBackToLocal(t *testing.T) {
	local := &stubRunner{}
	co := New(Config{
		Local:   local,
		TTL:     time.Second,
		Timeout: 200 * time.Millisecond,
		Base:    config.Default(),
	})
	mix := testMix(t, "solo-bfs1")

	// Empty fleet: straight to local.
	if _, err := co.Run(platform.ZnG, mix, 0.5, config.Default()); err != nil {
		t.Fatal(err)
	}
	if local.Calls() != 1 {
		t.Fatalf("local calls = %d, want 1", local.Calls())
	}

	// One unreachable peer: dispatch faults, the cell falls back.
	if _, err := co.Register("127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(platform.ZnG, mix, 0.5, config.Default()); err != nil {
		t.Fatal(err)
	}
	if local.Calls() != 2 {
		t.Fatalf("local calls = %d, want 2 (fallback after peer fault)", local.Calls())
	}
	if g := co.Gauges(); g.CellsReassigned == 0 {
		t.Errorf("peer fault not counted as a reassignment: %+v", g)
	}
}

func testMix(t *testing.T, name string) workload.Mix {
	t.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mixID(t *testing.T, name string) string {
	t.Helper()
	return testMix(t, name).ID()
}

func mustStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
