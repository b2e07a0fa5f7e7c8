package simsvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/store"
	"zng/internal/workload"
)

// refRunResponse is the reply writeRun writes, as writeJSON writes it
// through encoding/json with the result document as a RawMessage.
type refRunResponse struct {
	Job    JobInfo         `json:"job"`
	Result json.RawMessage `json:"result,omitempty"`
	Spans  []obs.Record    `json:"spans,omitempty"`
}

func TestWriteRunMatchesEncoder(t *testing.T) {
	res := platform.Result{Kind: platform.ZnG, Workload: "a<b>&\"c\\\u2028", IPC: 0.5, Cycles: 7, Insts: 9,
		PlaneWrites: make([]uint64, 1024), Extra: map[string]float64{"mapped_pages": 3, "x&y": 1e-9}}
	for i := range res.PlaneWrites {
		res.PlaneWrites[i] = uint64(i * i)
	}
	doc := report.EncodeResult(res)
	spans := []obs.Record{{Trace: 1, Span: 2, Name: "http", Detail: "POST /v1/run", Proc: "worker", Code: 200, StartUS: 5, DurUS: 7},
		{Trace: 1, Span: 3, Parent: 2, Name: "sim", Err: "<boom>", StartUS: 6, DurUS: 1}}
	job := JobInfo{ID: "job-1", State: StateDone, Platform: "ZnG", Workload: "bfs1-gaus", MixID: "bfs1+gaus",
		Scale: 0.05, Priority: -2, Waiters: 1, Source: "disk"}
	failed := job
	failed.State, failed.Source, failed.Error = StateError, "sim", "platform: apps > SMs & \"more\""
	for name, resp := range map[string]runResponse{
		"accepted":      {Job: JobInfo{ID: "job-2", State: StateQueued, Platform: "GDDR5", Scale: 2}},
		"done":          {Job: job, Result: doc},
		"done, traced":  {Job: job, Result: doc, Spans: spans},
		"failed":        {Job: failed},
		"failed traced": {Job: failed, Spans: spans},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeRun(got, http.StatusOK, resp)
		writeJSON(want, http.StatusOK, refRunResponse{resp.Job, resp.Result, resp.Spans})
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: writeRun wrote\n%s\nencoding/json writes\n%s", name, got.Body, want.Body)
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
	}
}

// doneJobGETAllocs bounds the mallocs of one GET /v1/jobs/{id} of a
// done 1,024-plane job, recorder included: 18 with Go 1.24. Handing
// the document to encoding/json as a json.RawMessage, which it
// compacts and re-indents, made 68.
const doneJobGETAllocs = 30

// TestAPIServesPlaneDocument: a ZnG-rdopt cell that programs its flash
// (640 pages on solo-back at scale 0.05), so that its document carries
// 1,024 planes of program counts, is served through POST
// /v1/run?wait=D and GET /v1/jobs/{id} as a memory hit and, after a
// restart, as a disk hit. Every reply carries the stored document and
// stays the indented envelope zngd-smoke greps.
func TestAPIServesPlaneDocument(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("solo-back")
	if err != nil {
		t.Fatal(err)
	}
	const cell = `{"platform":"ZnG-rdopt","mix":"solo-back","scale":0.05,"async":true}`
	boot := func() http.Handler {
		svc := New(Config{Workers: 1, Store: st, CacheEntries: 16})
		t.Cleanup(svc.Close)
		return NewHandler(svc, config.Default())
	}
	serve := func(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec
	}
	ipc := regexp.MustCompile(`"ipc": *[0-9]*\.?[0-9]+`)
	var stored []byte
	// check requires the reply to be indented as writeJSON indents, to
	// carry the stored document and, when source is set, to name it as
	// the job's source; it returns the job id.
	check := func(what string, rec *httptest.ResponseRecorder, source string) string {
		t.Helper()
		body := rec.Body.Bytes()
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := json.Indent(&indented, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(indented.Bytes(), '\n'), body) {
			t.Errorf("%s: reply is not the two-space indented form:\n%s", what, body)
		}
		if !ipc.Match(body) || source != "" && !bytes.Contains(body, []byte(`"source": "`+source+`"`)) {
			t.Errorf("%s: reply lacks `\"ipc\": ` or `\"source\": %q`:\n%s", what, source, body)
		}
		var env struct {
			Job    JobInfo         `json:"job"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		r, err := report.DecodeResult(env.Result)
		if err != nil || env.Job.State != StateDone {
			t.Fatalf("%s: job %+v, result error %v", what, env.Job, err)
		}
		if len(r.PlaneWrites) != 1024 || !bytes.Equal(report.EncodeResult(r), stored) {
			t.Errorf("%s: result (%d planes) is not the stored document", what, len(r.PlaneWrites))
		}
		return env.Job.ID
	}

	h := boot()
	serve(h, http.MethodPost, "/v1/run?wait=10s", cell) // simulates and stores the cell
	if stored, err = os.ReadFile(st.Path(cellkey.Key(platform.ZnGRdopt, mix.ID(), 0.05, config.Default()))); err != nil {
		t.Fatal(err)
	}
	id := check("memory-hit POST", serve(h, http.MethodPost, "/v1/run?wait=10s", cell), "memory")
	check("memory-hit GET", serve(h, http.MethodGet, "/v1/jobs/"+id, ""), "")

	get := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	if allocs := testing.AllocsPerRun(20, func() { h.ServeHTTP(httptest.NewRecorder(), get) }); allocs > doneJobGETAllocs {
		t.Errorf("a done-job GET makes %.0f mallocs, want at most %d", allocs, doneJobGETAllocs)
	}

	h = boot() // a restart: the memory tier is cold, the store is not
	id = check("disk-hit POST", serve(h, http.MethodPost, "/v1/run?wait=10s", cell), "disk")
	check("disk-hit GET", serve(h, http.MethodGet, "/v1/jobs/"+id, ""), "disk")
}
