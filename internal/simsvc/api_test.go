package simsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/workload"
)

// newTestServer boots the API over a stub simulator.
func newTestServer(t *testing.T, sim SimFunc) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(Config{Workers: 2, Simulate: sim})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)
	return srv, svc
}

func fixedSim(ipc float64) SimFunc {
	return func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.ID(), IPC: ipc, Cycles: 1000, Insts: 500}, nil
	}
}

// postRun issues a POST /v1/run and decodes the reply envelope.
func postRun(t *testing.T, url string, body string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("undecodable reply: %v", err)
	}
	return resp, doc
}

func TestAPIRunSync(t *testing.T) {
	srv, svc := newTestServer(t, fixedSim(3.25))
	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, doc["error"])
	}
	var result struct {
		Workload string  `json:"workload"`
		IPC      float64 `json:"ipc"`
		Kind     string  `json:"kind"`
	}
	if err := json.Unmarshal(doc["result"], &result); err != nil {
		t.Fatal(err)
	}
	if result.IPC != 3.25 || result.Workload != "betw+back" || result.Kind != "ZnG" {
		t.Errorf("result = %+v", result)
	}
	var job JobInfo
	if err := json.Unmarshal(doc["job"], &job); err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone || job.Source != "sim" {
		t.Errorf("job = %+v, want done from sim", job)
	}
	if st := svc.Stats(); st.Sims != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAPIRunValidation(t *testing.T) {
	srv, _ := newTestServer(t, fixedSim(1))
	for name, body := range map[string]string{
		"unknown platform": `{"platform":"GTX9000","mix":"betw-back"}`,
		"unknown mix":      `{"platform":"ZnG","mix":"no-such-mix"}`,
		"unknown app":      `{"platform":"ZnG","apps":"nope,gaus"}`,
		"both selectors":   `{"platform":"ZnG","mix":"betw-back","apps":"bfs1"}`,
		"no selector":      `{"platform":"ZnG"}`,
		"negative scale":   `{"platform":"ZnG","mix":"betw-back","scale":-1}`,
		"unknown field":    `{"platform":"ZnG","mix":"betw-back","scalee":2}`,
		"malformed json":   `{"platform":`,
	} {
		resp, doc := postRun(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if len(doc["error"]) == 0 {
			t.Errorf("%s: reply carries no error", name)
		}
	}
}

func TestAPIRunAdhocApps(t *testing.T) {
	srv, _ := newTestServer(t, fixedSim(2))
	resp, doc := postRun(t, srv.URL, `{"platform":"HybridGPU","apps":"bfs1,gaus*1.5","scale":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, doc["error"])
	}
	var result struct {
		Workload string `json:"workload"`
	}
	if err := json.Unmarshal(doc["result"], &result); err != nil {
		t.Fatal(err)
	}
	if result.Workload != "bfs1+gaus*1.5" {
		t.Errorf("ad-hoc workload label = %q", result.Workload)
	}
}

func TestAPIAsyncAndJobStatus(t *testing.T) {
	gate := make(chan struct{})
	srv, _ := newTestServer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		<-gate
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 9}, nil
	})
	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"pr-gaus","scale":0.5,"async":true,"priority":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d, want 202", resp.StatusCode)
	}
	if len(doc["result"]) != 0 {
		t.Error("async reply must not carry a result")
	}
	var job JobInfo
	if err := json.Unmarshal(doc["job"], &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Priority != 3 {
		t.Errorf("async job = %+v", job)
	}
	close(gate)

	// Poll to done, then collect the result document from the same
	// endpoint — the whole point of an async submission.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Job    JobInfo         `json:"job"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(r.Body).Decode(&envelope)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if envelope.Job.State == StateDone {
			var result struct {
				IPC float64 `json:"ipc"`
			}
			if err := json.Unmarshal(envelope.Result, &result); err != nil {
				t.Fatalf("done job carries no decodable result: %v", err)
			}
			if result.IPC != 9 {
				t.Errorf("polled result IPC = %v, want 9", result.IPC)
			}
			break
		}
		if len(envelope.Result) != 0 {
			t.Errorf("unfinished job (state %q) must not carry a result", envelope.Job.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", envelope.Job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if r, err := http.Get(srv.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job status = %d, want 404", r.StatusCode)
		}
	}
}

// getJSON decodes one GET endpoint.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return r.StatusCode
}

func TestAPIListEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, fixedSim(1))

	var scen struct {
		Scenarios []scenarioInfo `json:"scenarios"`
	}
	if code := getJSON(t, srv.URL+"/v1/scenarios", &scen); code != http.StatusOK {
		t.Fatalf("scenarios status %d", code)
	}
	if len(scen.Scenarios) != len(workload.Scenarios()) {
		t.Errorf("scenarios = %d, registry has %d", len(scen.Scenarios), len(workload.Scenarios()))
	}
	found := false
	for _, s := range scen.Scenarios {
		if s.Name == "betw-back" && s.Degree == 2 {
			found = true
		}
	}
	if !found {
		t.Error("scenario list missing betw-back")
	}

	var plats struct {
		Platforms []string `json:"platforms"`
	}
	if code := getJSON(t, srv.URL+"/v1/platforms", &plats); code != http.StatusOK {
		t.Fatalf("platforms status %d", code)
	}
	if fmt.Sprint(plats.Platforms) != fmt.Sprint(platform.KindNames()) {
		t.Errorf("platforms = %v, want %v", plats.Platforms, platform.KindNames())
	}

	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %q", code, health.Status)
	}
}

func TestAPIJobsListAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t, fixedSim(1))
	if resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("run failed: %s", doc["error"])
	}
	// An identical re-run is a memory hit on the same job.
	if resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("rerun failed: %s", doc["error"])
	}

	var jobs struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("jobs status %d", code)
	}
	if len(jobs.Jobs) != 1 {
		t.Fatalf("jobs = %+v, want the coalesced single job", jobs.Jobs)
	}

	var m metricsDoc
	if code := getJSON(t, srv.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Sims != 1 || m.MemoryHits != 1 || m.JobsDone != 1 || m.JobsTotal != 1 {
		t.Errorf("metrics = %+v, want 1 sim, 1 memory hit, 1 done job", m)
	}
}

// TestAPIRunRealSimulation exercises the full stack once — HTTP in,
// real simulator, encoded result out — at test scale, pinning the CI
// smoke contract (200 with a non-empty IPC) in-process.
func TestAPIRunRealSimulation(t *testing.T) {
	svc := New(Config{Workers: 1})
	t.Cleanup(svc.Close)
	o := testOptions()
	srv := httptest.NewServer(NewHandler(svc, o.Cfg))
	t.Cleanup(srv.Close)

	resp, doc := postRun(t, srv.URL, fmt.Sprintf(`{"platform":"GDDR5","mix":"solo-bfs1","scale":%g}`, o.Scale))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, doc["error"])
	}
	var result struct {
		IPC float64 `json:"ipc"`
	}
	if err := json.Unmarshal(doc["result"], &result); err != nil {
		t.Fatal(err)
	}
	if result.IPC <= 0 {
		t.Errorf("real simulation IPC = %v, want positive", result.IPC)
	}
}

// TestAPIStructuredErrors audits the error contract: every failure
// path — unknown job, unknown campaign, unknown path, wrong method —
// returns a JSON {"error": ...} body with the right status code,
// never the ServeMux's text/plain fallback.
func TestAPIStructuredErrors(t *testing.T) {
	srv, _ := newTestServer(t, fixedSim(1))
	const async = `{"platform":"ZnG","mix":"betw-back","scale":0.5,"async":true}`
	for name, tc := range map[string]struct {
		method, path, body string
		status             int
	}{
		"unknown job":          {"GET", "/v1/jobs/job-999", "", http.StatusNotFound},
		"unknown campaign":     {"GET", "/v1/campaigns/c-999", "", http.StatusNotFound},
		"unknown path":         {"GET", "/v1/nope", "", http.StatusNotFound},
		"root path":            {"GET", "/", "", http.StatusNotFound},
		"run wrong method":     {"GET", "/v1/run", "", http.StatusMethodNotAllowed},
		"jobs wrong method":    {"DELETE", "/v1/jobs", "", http.StatusMethodNotAllowed},
		"job id wrong method":  {"POST", "/v1/jobs/job-1", "", http.StatusMethodNotAllowed},
		"metrics wrong method": {"POST", "/metrics", "", http.StatusMethodNotAllowed},
		"campaign bad method":  {"DELETE", "/v1/campaigns", "", http.StatusMethodNotAllowed},
		"register bad method":  {"GET", "/v1/fleet/register", "", http.StatusMethodNotAllowed},
		"run malformed wait":   {"POST", "/v1/run?wait=soon", async, http.StatusBadRequest},
		"run unitless wait":    {"POST", "/v1/run?wait=5", async, http.StatusBadRequest},
		"run negative wait":    {"POST", "/v1/run?wait=-1s", async, http.StatusBadRequest},
		"sync run with wait":   {"POST", "/v1/run?wait=1s", `{"platform":"ZnG","mix":"betw-back","scale":0.5}`, http.StatusBadRequest},
		"job malformed wait":   {"GET", "/v1/jobs/job-1?wait=forever", "", http.StatusBadRequest},
		"job negative wait":    {"GET", "/v1/jobs/job-1?wait=-2ms", "", http.StatusBadRequest},
		"campaign bad wait":    {"GET", "/v1/campaigns/c-1?wait=1x", "", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		ct := resp.Header.Get("Content-Type")
		decErr := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.status)
		}
		if ct != "application/json" {
			t.Errorf("%s: content type %q, want application/json", name, ct)
		}
		if decErr != nil || doc.Error == "" {
			t.Errorf("%s: body is not a structured error (%v)", name, decErr)
		}
		if tc.status == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
			t.Errorf("%s: 405 without an Allow header", name)
		}
	}
}

// TestAPIRunWithConfig: a request carrying a full config simulates
// under exactly that config — the remote client's contract.
func TestAPIRunWithConfig(t *testing.T) {
	var (
		mu     sync.Mutex
		gotCfg config.Config
	)
	srv, _ := newTestServer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		mu.Lock()
		gotCfg = cfg
		mu.Unlock()
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
	})
	cfg := config.Default()
	cfg.Flash.Channels = 4
	body, err := json.Marshal(struct {
		Platform string        `json:"platform"`
		Mix      string        `json:"mix"`
		Scale    float64       `json:"scale"`
		Config   config.Config `json:"config"`
	}{"ZnG", "betw-back", 0.5, cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp, doc := postRun(t, srv.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, doc["error"])
	}
	mu.Lock()
	if gotCfg != cfg {
		t.Errorf("simulated config diverged from the request's (channels = %d, want 4)", gotCfg.Flash.Channels)
	}
	mu.Unlock()

	// A partial config merges over the daemon's base: unspecified
	// fields inherit instead of zeroing (which would simulate a
	// degenerate machine and cache the garbage result).
	resp, doc = postRun(t, srv.URL, `{"platform":"ZnG","mix":"pr-gaus","scale":0.5,"config":{"Flash":{"Channels":8}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial config status = %d (%s)", resp.StatusCode, doc["error"])
	}
	mu.Lock()
	defer mu.Unlock()
	want := config.Default()
	want.Flash.Channels = 8
	if gotCfg != want {
		t.Errorf("partial config did not merge over the base: GPU.SMs = %d, Channels = %d (want %d, 8)",
			gotCfg.GPU.SMs, gotCfg.Flash.Channels, want.GPU.SMs)
	}
}

// TestAPIRunRejectsUnindexableCache: a "config" with a value outside
// its declared range (a cache or MMU size the simulator cannot index, a
// negative latency, a bandwidth that is not positive, a plane without
// registers, a page size that is not a power of two, an unknown
// register network) or a field config.Config no longer has is a 400
// that names the field, for sync and async runs alike, and no job is
// created.
func TestAPIRunRejectsUnindexableCache(t *testing.T) {
	srv, svc := newTestServer(t, nil) // the real simulator
	for _, c := range []struct {
		body   string
		fields []string // what the error must name
	}{
		{`{"platform":"HybridGPU","mix":"solo-bfs1","scale":0.05,"config":{"L2SRAM":{"LineBytes":96}}}`, []string{"L2SRAM", "LineBytes"}},
		{`{"platform":"ZnG","mix":"solo-bfs1","scale":0.05,"config":{"L2STT":{"Sets":0}}}`, []string{"L2STT", "Sets"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"config":{"L1":{"Ways":-1}}}`, []string{"L1", "Ways"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"config":{"L1":{"Ways":129}}}`, []string{"L1", "Ways"}},
		{`{"platform":"ZnG","mix":"solo-bfs1","scale":0.05,"config":{"L2STT":{"MSHRs":-1}}}`, []string{"L2STT", "MSHRs"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"config":{"L1":{"MSHRs":0}}}`, []string{"L1", "MSHRs"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"config":{"MMU":{"L1TLBEntries":0}}}`, []string{"MMU", "L1TLBEntries"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"config":{"MMU":{"WalkCacheEnt":0}}}`, []string{"MMU", "WalkCacheEnt"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"config":{"MMU":{"WalkerThreads":0}}}`, []string{"MMU", "WalkerThreads"}},
		{`{"platform":"ZnG","mix":"solo-bfs1","scale":0.05,"config":{"Flash":{"MeshHopLat":-500}}}`, []string{"Flash.MeshHopLat"}},
		{`{"platform":"ZnG","mix":"solo-bfs1","scale":0.05,"async":true,"config":{"Flash":{"MeshHopLat":-500}}}`, []string{"Flash.MeshHopLat"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"async":true,"config":{"L1":{"Ways":-1}}}`, []string{"L1", "Ways"}},
		{`{"platform":"ZnG-base","mix":"solo-bfs1","scale":0.05,"config":{"RegCache":{"LocalNetGBps":0}}}`, []string{"RegCache.LocalNetGBps"}},
		{`{"platform":"ZnG-rdopt","mix":"solo-bfs1","scale":0.05,"config":{"Flash":{"RegsPerPlane":0}}}`, []string{"Flash.RegsPerPlane"}},
		{`{"platform":"HybridGPU","mix":"solo-bfs1","scale":0.05,"async":true,"config":{"Flash":{"ChannelGBps":-1.6}}}`, []string{"Flash.ChannelGBps"}},
		{`{"platform":"ZnG-base","mix":"solo-bfs1","scale":0.05,"config":{"Flash":{"PageBytes":4000}}}`, []string{"Flash.PageBytes"}},
		{`{"platform":"ZnG","mix":"solo-bfs1","scale":0.05,"async":true,"config":{"Flash":{"Channels":0}}}`, []string{"Flash.Channels"}},
		{`{"platform":"ZnG-wropt","mix":"solo-bfs1","scale":0.05,"config":{"RegCache":{"Net":7}}}`, []string{"RegCache.Net"}},
		{`{"platform":"GDDR5","mix":"solo-bfs1","scale":0.05,"config":{"GPU":{"MaxWarps":80}}}`, []string{"GPU.MaxWarps"}},
		{`{"platform":"ZnG","mix":"solo-bfs1","scale":0.05,"config":{"Flash":{"MeshDim":4}}}`, []string{"Flash.MeshDim"}},
	} {
		resp, doc := postRun(t, srv.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest || len(doc["result"]) != 0 {
			t.Errorf("%s: status %d with result %s, want 400", c.body, resp.StatusCode, doc["result"])
		}
		var msg string
		if err := json.Unmarshal(doc["error"], &msg); err != nil || msg == "" {
			t.Errorf("%s: reply carries no error (%s)", c.body, doc["error"])
			continue
		}
		for _, f := range c.fields {
			if !strings.Contains(msg, f) {
				t.Errorf("%s: error %q does not name %s", c.body, msg, f)
			}
		}
	}
	var jobs struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs.Jobs) != 0 {
		t.Errorf("GET /v1/jobs: status %d, %d jobs; want 200 and none", code, len(jobs.Jobs))
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("rejected runs left %d jobs", n)
	}
}

// TestAPICampaignLifecycle drives a campaign end-to-end over HTTP:
// POST the spec, poll the id to done, and collect the folded matrix.
func TestAPICampaignLifecycle(t *testing.T) {
	srv, svc := newTestServer(t, fixedSim(2.5))

	spec := `{"name":"api","platforms":["ZnG","HybridGPU"],"scenarios":["solo-bfs1","solo-gaus"],"scales":[0.5]}`
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewBufferString(spec))
	if err != nil {
		t.Fatal(err)
	}
	var started struct {
		Campaign struct {
			ID       string `json:"id"`
			State    string `json:"state"`
			Progress struct {
				Total int `json:"total"`
			} `json:"progress"`
		} `json:"campaign"`
	}
	err = json.NewDecoder(resp.Body).Decode(&started)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if started.Campaign.ID == "" || started.Campaign.Progress.Total != 4 {
		t.Fatalf("campaign = %+v", started.Campaign)
	}

	// Poll to done and collect the matrix.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var detail struct {
			State    string `json:"state"`
			Progress struct {
				Done   int `json:"done"`
				Failed int `json:"failed"`
			} `json:"progress"`
			Table json.RawMessage `json:"table"`
		}
		if code := getJSON(t, srv.URL+"/v1/campaigns/"+started.Campaign.ID, &detail); code != http.StatusOK {
			t.Fatalf("campaign status %d", code)
		}
		if detail.State == "done" {
			if detail.Progress.Done != 4 || detail.Progress.Failed != 0 {
				t.Errorf("final progress = %+v", detail.Progress)
			}
			var table struct {
				Title  string     `json:"title"`
				Header []string   `json:"header"`
				Rows   [][]string `json:"rows"`
			}
			if err := json.Unmarshal(detail.Table, &table); err != nil {
				t.Fatalf("done campaign carries no decodable table: %v", err)
			}
			if table.Title != "api" || len(table.Rows) != 2 || len(table.Header) != 3 {
				t.Errorf("table = %+v, want 2 scenario rows x 2 platform columns", table)
			}
			if table.Rows[0][1] != "2.5" {
				t.Errorf("matrix cell = %q, want the stub IPC 2.5", table.Rows[0][1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The campaign ran through the shared service: its cells are jobs.
	if st := svc.Stats(); st.Sims != 4 {
		t.Errorf("service stats = %+v, want the campaign's 4 unique sims", st)
	}

	// The list endpoint sees it.
	var list struct {
		Campaigns []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"campaigns"`
	}
	if code := getJSON(t, srv.URL+"/v1/campaigns", &list); code != http.StatusOK {
		t.Fatalf("campaign list status %d", code)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != started.Campaign.ID || list.Campaigns[0].State != "done" {
		t.Errorf("campaign list = %+v", list.Campaigns)
	}

	// Bad specs are structured 400s naming what is wrong.
	for name, tc := range map[string]struct{ body, want string }{
		"empty spec":       {`{}`, "no platforms"},
		"unknown platform": {`{"platforms":["GTX9000"],"scenarios":["solo-bfs1"]}`, "GTX9000"},
		"unknown field":    {`{"platformz":["ZnG"]}`, "platformz"},
		"malformed":        {`{"platforms":`, "EOF"},
		// An override knob of the retired form is an unknown field, not
		// a base-configuration cell.
		"old override key": {`{"platforms":["ZnG"],"scenarios":["solo-bfs1"],"overrides":[{"l2_mult":8}]}`, `"l2_mult"`},
		"override range": {`{"platforms":["ZnG"],"scenarios":["solo-bfs1"],"overrides":[{"config":{"L2STT":{"Sets":1099511627776}}}]}`,
			"L2STT.Sets 1099511627776, want [1, 1048576]"},
	} {
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decErr != nil || !strings.Contains(doc.Error, tc.want) {
			t.Errorf("%s: status %d, err %v, body %+v; want a structured 400 naming %s", name, resp.StatusCode, decErr, doc, tc.want)
		}
	}
}

// TestAPIServeAttribution is the request-level attribution satellite:
// the second identical request is answered by the memory layer and its
// job must say so — before the fix it reported "sim", the source that
// originally computed the cell for someone else's request.
func TestAPIServeAttribution(t *testing.T) {
	srv, svc := newTestServer(t, fixedSim(1.5))
	body := `{"platform":"ZnG","mix":"betw-back","scale":0.5}`

	_, doc := postRun(t, srv.URL, body)
	var first JobInfo
	if err := json.Unmarshal(doc["job"], &first); err != nil {
		t.Fatal(err)
	}
	if first.Source != "sim" {
		t.Fatalf("first request source = %q, want sim", first.Source)
	}

	resp, doc := postRun(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, doc["error"])
	}
	var second JobInfo
	if err := json.Unmarshal(doc["job"], &second); err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Errorf("repeat request job = %s, want the coalesced original %s", second.ID, first.ID)
	}
	if second.Source != "memory" {
		t.Errorf("repeat request source = %q, want memory (the tier that served it)", second.Source)
	}
	// The async path reports the same attribution for an already-done cell.
	resp, doc = postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d (%s)", resp.StatusCode, doc["error"])
	}
	var async JobInfo
	if err := json.Unmarshal(doc["job"], &async); err != nil {
		t.Fatal(err)
	}
	if async.Source != "memory" {
		t.Errorf("async repeat source = %q, want memory", async.Source)
	}
	if st := svc.Stats(); st.Sims != 1 || st.MemoryHits != 2 {
		t.Errorf("stats = %+v, want 1 sim, 2 memory hits", st)
	}
}

// TestAPIRunNamesCallersScenario: consol-2 aliases bfs1-gaus, so one
// job serves both, but each /v1/run reply names the scenario its own
// request asked for, sync or async. The job itself keeps the name of
// the request that admitted it, and the result document names the
// cell's mix ID.
func TestAPIRunNamesCallersScenario(t *testing.T) {
	srv, _ := newTestServer(t, fixedSim(1.5))
	reply := func(doc map[string]json.RawMessage) (job JobInfo, result string) {
		t.Helper()
		if err := json.Unmarshal(doc["job"], &job); err != nil {
			t.Fatal(err)
		}
		if doc["result"] != nil {
			var r struct {
				Workload string `json:"workload"`
			}
			if err := json.Unmarshal(doc["result"], &r); err != nil {
				t.Fatal(err)
			}
			result = r.Workload
		}
		return job, result
	}
	_, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"bfs1-gaus","scale":0.5}`)
	first, _ := reply(doc)
	for _, tc := range []struct {
		body, result string
		status       int
	}{
		{`{"platform":"ZnG","mix":"consol-2","scale":0.5}`, "bfs1+gaus", http.StatusOK},
		{`{"platform":"ZnG","mix":"consol-2","scale":0.5,"async":true}`, "", http.StatusAccepted},
	} {
		resp, doc := postRun(t, srv.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d (%s), want %d", tc.body, resp.StatusCode, doc["error"], tc.status)
		}
		job, result := reply(doc)
		if job.ID != first.ID || job.Workload != "consol-2" || result != tc.result {
			t.Errorf("%s: job %s workload %q, result workload %q; want job %s, consol-2, %q",
				tc.body, job.ID, job.Workload, result, first.ID, tc.result)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var polled map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	if job, result := reply(polled); job.Workload != "bfs1-gaus" || result != "bfs1+gaus" {
		t.Errorf("GET /v1/jobs/%s: workload %q, result workload %q; want bfs1-gaus, bfs1+gaus", first.ID, job.Workload, result)
	}
}
