package zng_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/fleet"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/report"
	"zng/internal/simsvc"
	"zng/internal/store"
	"zng/internal/workload"
)

func mixByName(t *testing.T, name string) workload.Mix {
	t.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeDoc returns the one result document a store holds.
func storeDoc(t *testing.T, st *store.Store) (name string, doc []byte) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(st.Dir(), "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store %s holds %v (%v), want one document", st.Dir(), files, err)
	}
	doc, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(files[0]), doc
}

// neverSim is a simulator for services that must answer from a tier.
func neverSim(platform.Kind, workload.Mix, float64, config.Config) (platform.Result, error) {
	return platform.Result{}, errors.New("must not simulate")
}

// TestAliasesShareOneDocumentOnEveryRunner sends the aliasing
// scenarios consol-2 and bfs1-gaus through every runner and every tier
// and gets one result document, labelled with their shared mix ID: a
// cell's answer is formed once, in platform.RunMix, and no runner
// patches it. Two stores filled in opposite alias order hold the same
// bytes under the same name.
func TestAliasesShareOneDocumentOnEveryRunner(t *testing.T) {
	const (
		kind  = platform.GDDR5
		scale = 0.02
	)
	cfg := config.Default()
	pair, alias := mixByName(t, "bfs1-gaus"), mixByName(t, "consol-2")
	r, err := platform.RunMix(kind, pair, scale, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := report.EncodeResult(r)
	if !bytes.Contains(want, []byte(`"workload": "bfs1+gaus"`)) {
		t.Fatalf("RunMix's document does not name the mix ID:\n%s", want)
	}
	check := func(runner string, r platform.Result, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", runner, err)
		} else if got := report.EncodeResult(r); !bytes.Equal(got, want) {
			t.Errorf("%s answered\n%s\nwant\n%s", runner, got, want)
		}
	}
	r, err = platform.RunMix(kind, alias, scale, cfg)
	check("RunMix consol-2", r, err)

	memo := experiments.NewMemo()
	for _, m := range []workload.Mix{alias, pair} {
		r, err := memo.Run(kind, m, scale, cfg)
		check("Memo "+m.Name, r, err)
	}
	if st := memo.Stats(); st.Sims != 1 || st.MemoryHits != 1 {
		t.Errorf("Memo stats %+v, want one simulation and one memory hit", st)
	}

	// simsvc: bfs1-gaus simulates while consol-2 attaches to it, then
	// consol-2 is a memory hit.
	stA := openStore(t)
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	svc := simsvc.New(simsvc.Config{Store: stA, Workers: 1,
		Simulate: func(k platform.Kind, m workload.Mix, s float64, c config.Config) (platform.Result, error) {
			<-gate
			return platform.RunMix(k, m, s, c)
		}})
	defer svc.Close()
	defer open() // before Close, so a failed test still drains the worker
	ctx := context.Background()
	_, job, err := svc.SubmitWait(ctx, simsvc.Request{Kind: kind, Mix: pair, Scale: scale, Cfg: cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		r   platform.Result
		err error
	}
	attached := make(chan answer, 1)
	go func() {
		r, err := svc.Do(simsvc.Request{Kind: kind, Mix: alias, Scale: scale, Cfg: cfg})
		attached <- answer{r, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Coalesced == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("consol-2 never attached to the bfs1-gaus job")
		}
	}
	open()
	info, r, ok := svc.JobResult(ctx, job.ID, 10*time.Second)
	if !ok || info.State != simsvc.StateDone || info.Workload != "bfs1-gaus" {
		t.Fatalf("simulated job = %+v, want done under its request's name", info)
	}
	check("simsvc simulation", r, nil)
	a := <-attached
	check("simsvc coalesced attach", a.r, a.err)
	r, err = svc.Do(simsvc.Request{Kind: kind, Mix: alias, Scale: scale, Cfg: cfg})
	check("simsvc memory hit", r, err)
	if st := svc.Stats(); st.Sims != 1 || st.Coalesced != 1 || st.MemoryHits != 1 {
		t.Errorf("simsvc stats %+v, want one simulation, attach and memory hit", st)
	}

	disk := simsvc.New(simsvc.Config{Store: stA, Workers: 1, Simulate: neverSim})
	defer disk.Close()
	r, err = disk.Do(simsvc.Request{Kind: kind, Mix: alias, Scale: scale, Cfg: cfg})
	check("simsvc disk hit", r, err)
	if st := disk.Stats(); st.DiskHits != 1 {
		t.Errorf("fresh service stats %+v, want one disk hit", st)
	}

	// zngd over the real simulator: an async run of consol-2 collected
	// from its job, the same request answered within its wait, then
	// remote.Client asking under both names.
	peer := simsvc.New(simsvc.Config{Workers: 1})
	defer peer.Close()
	srv := httptest.NewServer(simsvc.NewHandler(peer, cfg))
	defer srv.Close()
	call := func(method, path, body string) (id string, answered bool) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply struct {
			Job    struct{ ID string }
			Result json.RawMessage
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Result) > 0 {
			r, err := report.DecodeResult(reply.Result)
			check(method+" "+path, r, err)
		}
		return reply.Job.ID, len(reply.Result) > 0
	}
	const body = `{"platform":"GDDR5","mix":"consol-2","scale":0.02,"async":true}`
	id, _ := call("POST", "/v1/run", body)
	if _, answered := call("GET", "/v1/jobs/"+id+"?wait=10s", ""); !answered {
		t.Error("GET /v1/jobs/{id}: no result")
	}
	if _, answered := call("POST", "/v1/run?wait=10s", body); !answered {
		t.Error("POST /v1/run?wait: no result")
	}
	client := remote.NewClient(srv.URL)
	for _, m := range []workload.Mix{alias, pair} {
		r, err := client.Run(kind, m, scale, cfg)
		check("remote.Client "+m.Name, r, err)
	}

	// A coordinator over a second store, filled in the opposite order:
	// consol-2 runs locally and is written, bfs1-gaus is a store hit.
	stB := openStore(t)
	co := fleet.New(fleet.Config{Local: experiments.NewMemo(), Store: stB, Base: cfg})
	for _, m := range []workload.Mix{alias, pair} {
		r, err := co.Run(kind, m, scale, cfg)
		check("fleet.Coordinator "+m.Name, r, err)
	}

	nameA, docA := storeDoc(t, stA)
	nameB, docB := storeDoc(t, stB)
	if nameA != nameB || !bytes.Equal(docA, docB) || !bytes.Equal(docA, want) {
		t.Errorf("stores filled in opposite alias order differ:\n%s\n%s\n%s\n%s", nameA, docA, nameB, docB)
	}
}

// TestOutgrownFlashIsAnErrorOnEveryRunner runs betw-back on a flash
// that config.Validate accepts but the trace outgrows (one plane of
// nine 16-page blocks): every flash platform's run is an error naming
// the platform and the FTL's complaint, from platform.RunMix, the
// experiments memo and a simsvc job alike, and the service's worker
// goes on to serve the next cell.
func TestOutgrownFlashIsAnErrorOnEveryRunner(t *testing.T) {
	cfg := config.Default()
	cfg.Flash.Channels, cfg.Flash.DiesPerPkg, cfg.Flash.PlanesPerDie = 1, 1, 1
	cfg.Flash.BlocksPerPl, cfg.Flash.PagesPerBlock = 9, 16
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	mix := mixByName(t, "betw-back")
	const scale = 0.05
	memo := experiments.NewMemo()
	svc := simsvc.New(simsvc.Config{Workers: 1})
	defer svc.Close()
	for _, tc := range []struct {
		kind platform.Kind
		want string
	}{
		{platform.ZnGBase, "platform ZnG-base: ftl: plane out of data blocks (working set exceeds capacity)"},
		{platform.ZnGRdopt, "platform ZnG-rdopt: ftl: plane out of data blocks (working set exceeds capacity)"},
		{platform.ZnGWropt, "platform ZnG-wropt: ftl: plane out of data blocks (working set exceeds capacity)"},
		{platform.ZnG, "platform ZnG: ftl: plane out of data blocks (working set exceeds capacity)"},
		{platform.HybridGPU, "platform HybridGPU: ftl: plane out of preload blocks"},
	} {
		_, err := platform.RunMix(tc.kind, mix, scale, cfg)
		if err == nil || err.Error() != tc.want {
			t.Errorf("RunMix on %v: %v, want %q", tc.kind, err, tc.want)
		}
		if _, err := memo.Run(tc.kind, mix, scale, cfg); err == nil || err.Error() != tc.want {
			t.Errorf("Memo on %v: %v, want %q", tc.kind, err, tc.want)
		}
		if _, err := svc.Do(simsvc.Request{Kind: tc.kind, Mix: mix, Scale: scale, Cfg: cfg}); err == nil || err.Error() != tc.want {
			t.Errorf("simsvc job on %v: %v, want %q", tc.kind, err, tc.want)
		}
	}
	if r, err := svc.Do(simsvc.Request{Kind: platform.GDDR5, Mix: mix, Scale: 0.02, Cfg: config.Default()}); err != nil || !(r.IPC > 0) {
		t.Errorf("the worker after the failed cells: %+v, %v", r, err)
	}
}
