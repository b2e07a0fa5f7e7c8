package simsvc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/workload"
)

// gatedSim blocks every cell until open is called. Register open as a
// cleanup after the service's, so it runs first and Close can drain.
func gatedSim() (sim SimFunc, open func()) {
	gate := make(chan struct{})
	var once sync.Once
	return func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		<-gate
		return platform.Result{Kind: kind, Workload: mix.ID(), IPC: 7, Cycles: 1000, Insts: 500}, nil
	}, func() { once.Do(func() { close(gate) }) }
}

// jobDoc is the reply envelope of POST /v1/run and GET /v1/jobs/{id}.
type jobDoc struct {
	Job    JobInfo         `json:"job"`
	Result json.RawMessage `json:"result"`
	Spans  []obs.Record    `json:"spans"`
}

func decodeJobDoc(t *testing.T, resp *http.Response) jobDoc {
	t.Helper()
	defer resp.Body.Close()
	var doc jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("undecodable reply: %v", err)
	}
	return doc
}

// timedReply is a reply and how long it took to arrive.
type timedReply struct {
	resp *http.Response
	took time.Duration
}

// getInBackground issues a GET on its own goroutine; a transport error
// is reported and yields a nil reply.
func getInBackground(t *testing.T, url string) <-chan timedReply {
	out := make(chan timedReply, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
		}
		out <- timedReply{resp, time.Since(start)}
	}()
	return out
}

func TestParseWaitClamps(t *testing.T) {
	for query, want := range map[string]time.Duration{
		"":               0,
		"?format=prom":   0,
		"?wait=0":        0,
		"?wait=250ms":    250 * time.Millisecond,
		"?wait=20s":      MaxWait,
		"?wait=1h":       MaxWait,
		"?wait=3s&x=1":   3 * time.Second,
		"?x=1&wait=1.5s": 1500 * time.Millisecond,
	} {
		got, err := parseWait(httptest.NewRequest(http.MethodGet, "/v1/jobs/job-1"+query, nil))
		if err != nil || got != want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", query, got, err, want)
		}
	}
}

// TestAPIWaitingRunAndPoll: an async run waits for its job and is
// answered 200 with the result when the job finishes within the wait,
// 202 otherwise; a waiting GET returns the moment the job finishes.
func TestAPIWaitingRunAndPoll(t *testing.T) {
	sim, open := gatedSim()
	srv, svc := newTestServer(t, sim)
	t.Cleanup(open)
	post := func(query, body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/run"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const cell = `{"platform":"ZnG","mix":"pr-gaus","scale":0.5,"async":true}`

	// The gate is shut, so the wait runs out: 202 with the live job.
	resp := post("?wait=20ms", cell)
	doc := decodeJobDoc(t, resp)
	if resp.StatusCode != http.StatusAccepted || finished(doc.Job.State) || len(doc.Result) != 0 {
		t.Fatalf("expired wait = %d, job %+v, result %s; want 202 with an unfinished job", resp.StatusCode, doc.Job, doc.Result)
	}

	// A long poll in flight when the gate opens replies at once.
	poll := getInBackground(t, srv.URL+"/v1/jobs/"+doc.Job.ID+"?wait=10s")
	open()
	got := <-poll
	if got.resp == nil {
		t.FailNow()
	}
	doc = decodeJobDoc(t, got.resp)
	if got.resp.StatusCode != http.StatusOK || doc.Job.State != StateDone || got.took > 5*time.Second {
		t.Fatalf("long poll = %d, job %+v after %v; want 200 done well inside its wait", got.resp.StatusCode, doc.Job, got.took)
	}
	var res struct {
		IPC      float64 `json:"ipc"`
		Workload string  `json:"workload"`
	}
	if err := json.Unmarshal(doc.Result, &res); err != nil || res.IPC != 7 {
		t.Fatalf("long-polled result = %s (%v), want IPC 7", doc.Result, err)
	}

	// A cell that finishes within the submit's wait is answered by the
	// POST: 200 with the cell's document, no poll needed.
	resp = post("?wait=10s", `{"platform":"ZnG","mix":"consol-2","scale":0.5,"async":true}`)
	doc = decodeJobDoc(t, resp)
	if resp.StatusCode != http.StatusOK || doc.Job.State != StateDone {
		t.Fatalf("quick waiting run = %d, job %+v; want 200 done", resp.StatusCode, doc.Job)
	}
	if err := json.Unmarshal(doc.Result, &res); err != nil || res.IPC != 7 || res.Workload != "bfs1+gaus" {
		t.Fatalf("waiting run result = %+v (%v), want IPC 7 labeled bfs1+gaus", res, err)
	}

	// Done at admission: the memory layer answers, attributed as such.
	resp = post("?wait=10s", cell)
	doc = decodeJobDoc(t, resp)
	if resp.StatusCode != http.StatusOK || doc.Job.Source != "memory" || len(doc.Result) == 0 {
		t.Fatalf("memory-hit waiting run = %d, job %+v; want 200 from memory with a result", resp.StatusCode, doc.Job)
	}
	// Without a wait the async run keeps its immediate 202, result-less
	// even when the cell is already done.
	resp = post("", cell)
	doc = decodeJobDoc(t, resp)
	if resp.StatusCode != http.StatusAccepted || doc.Job.State != StateDone || len(doc.Result) != 0 {
		t.Fatalf("no-wait run of a done cell = %d, job %+v; want 202 without a result", resp.StatusCode, doc.Job)
	}
	if st := svc.Stats(); st.Sims != 2 {
		t.Errorf("%d simulations, want 2", st.Sims)
	}
}

// TestAPICampaignLongPoll: GET /v1/campaigns/{id}?wait=D replies the
// moment the campaign finishes, with its matrix.
func TestAPICampaignLongPoll(t *testing.T) {
	sim, open := gatedSim()
	srv, _ := newTestServer(t, sim)
	t.Cleanup(open)
	resp, doc := postJSON(t, srv.URL+"/v1/campaigns",
		`{"platforms":["ZnG"],"scenarios":["solo-bfs1","solo-gaus"],"scales":[0.5]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start status = %d", resp.StatusCode)
	}
	var started struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(doc["campaign"], &started); err != nil {
		t.Fatal(err)
	}
	poll := getInBackground(t, srv.URL+"/v1/campaigns/"+started.ID+"?wait=10s")
	open()
	got := <-poll
	if got.resp == nil {
		t.FailNow()
	}
	defer got.resp.Body.Close()
	var detail struct {
		State string          `json:"state"`
		Table json.RawMessage `json:"table"`
	}
	if err := json.NewDecoder(got.resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if got.resp.StatusCode != http.StatusOK || detail.State != "done" || len(detail.Table) == 0 || got.took > 5*time.Second {
		t.Fatalf("campaign long poll = %d, state %q, %d-byte table after %v; want 200 done with the matrix well inside its wait",
			got.resp.StatusCode, detail.State, len(detail.Table), got.took)
	}
}

// TestAPIWaitReturnsOnCancel: a waiting POST or GET returns as soon as
// its client gives up, not when the wait runs out — a worker whose
// client connections are torn down frees its handlers at once.
func TestAPIWaitReturnsOnCancel(t *testing.T) {
	sim, open := gatedSim()
	svc := New(Config{Workers: 2, Simulate: sim})
	t.Cleanup(svc.Close)
	h := NewHandler(svc, config.Default())
	entered := make(chan struct{}, 1)
	returned := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		h.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(open)

	// The job to long-poll, from a no-wait submission.
	resp, err := http.Post(srv.URL+"/v1/run", "application/json",
		strings.NewReader(`{"platform":"ZnG","mix":"betw-back","scale":0.5,"async":true}`))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	<-returned
	id := decodeJobDoc(t, resp).Job.ID

	for name, newReq := range map[string]func(ctx context.Context) (*http.Request, error){
		"POST": func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/run?wait=10s",
				strings.NewReader(`{"platform":"ZnG","mix":"pr-gaus","scale":0.5,"async":true}`))
		},
		"GET": func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+id+"?wait=10s", nil)
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := newReq(ctx)
		if err != nil {
			t.Fatal(err)
		}
		failed := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			failed <- err
		}()
		<-entered
		// Give the handler time to reach its wait; a cancel that lands
		// earlier must end the wait just as fast.
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		cancel()
		if err := <-failed; err == nil {
			t.Errorf("%s: canceled request succeeded", name)
		}
		select {
		case <-returned:
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("%s: handler returned %v after the client left", name, took)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: handler still waiting 5 s after the client left", name)
		}
	}
}

// TestAPIWaitingRunCarriesSpans: a traced cell answered within the
// POST's wait brings the worker's span subtree back on that reply,
// since no poll is left to carry it.
func TestAPIWaitingRunCarriesSpans(t *testing.T) {
	tr := obs.New("worker", 256, 1)
	svc := New(Config{Workers: 1, Simulate: fixedSim(2), Tracer: tr})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	caller := obs.New("caller", 64, 1)
	peer := caller.StartRoot("peer", srv.URL)
	defer peer.End()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/run?wait=10s",
		strings.NewReader(`{"platform":"ZnG","mix":"betw-back","scale":0.5,"async":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.Header, peer.Context().Encode())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeJobDoc(t, resp)
	if resp.StatusCode != http.StatusOK || doc.Job.State != StateDone {
		t.Fatalf("traced waiting run = %d, job %+v; want 200 done", resp.StatusCode, doc.Job)
	}
	kinds := map[string]bool{}
	for _, r := range doc.Spans {
		if r.Trace != peer.Context().Trace {
			t.Errorf("span %q carries a foreign trace id", r.Name)
		}
		kinds[r.Name] = true
	}
	for _, want := range []string{"http", "queue", "sim"} {
		if !kinds[want] {
			t.Errorf("reply spans lack %q (got %v)", want, kinds)
		}
	}
}

// TestAPISyncRunStopsWaitingWhenClientLeaves: a sync POST /v1/run
// waits for its job under the request's context, so the handler
// returns once the client leaves while the simulation runs on; the
// finished cell then answers the next request from memory.
func TestAPISyncRunStopsWaitingWhenClientLeaves(t *testing.T) {
	sim := &stubSim{gate: make(chan struct{}), started: make(chan struct{}, 1), res: platform.Result{IPC: 4}}
	svc := New(Config{Workers: 1, Simulate: sim.fn})
	t.Cleanup(svc.Close)
	var once sync.Once
	open := func() { once.Do(func() { close(sim.gate) }) }
	t.Cleanup(open)
	h := NewHandler(svc, config.Default())
	const cell = `{"platform":"ZnG","mix":"betw-back","scale":0.5}`
	run := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(cell)).WithContext(ctx))
		return rec
	}

	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	go func() {
		run(ctx)
		close(returned)
	}()
	<-sim.started
	cancel()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("sync run still waiting a second after its client left")
	}
	key := cellkey.Key(platform.ZnG, testMix(t, "betw-back").ID(), 0.5, config.Default())
	if info, ok := jobInfo(svc, key); !ok || info.State != StateRunning {
		t.Fatalf("job after the client left = %+v (found %v), want still running", info, ok)
	}

	open()
	if _, err := await(t, svc, key); err != nil {
		t.Fatal(err)
	}
	rec := run(context.Background())
	doc := decodeJobDoc(t, rec.Result())
	if rec.Code != http.StatusOK || doc.Job.Source != "memory" || len(doc.Result) == 0 {
		t.Errorf("next request = %d, job %+v; want 200 from memory with the result", rec.Code, doc.Job)
	}
	if st := svc.Stats(); st.Sims != 1 || st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want 1 simulation and 1 memory hit", st)
	}
}
