package simsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"zng/internal/campaign"
	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/workload"
)

// TestAPIBodyCap: every endpoint that reads a body answers one over
// MaxBodyBytes with a 413 and a JSON error, whether or not the request
// declares its length, and the handler stops reading at the cap: a
// 2 MiB POST /v1/run body costs it well under 8 MiB of allocation.
func TestAPIBodyCap(t *testing.T) {
	svc := New(Config{Workers: 1, Simulate: fixedSim(1)})
	t.Cleanup(svc.Close)
	h := NewHandler(svc, config.Default())
	big := []byte(`{"platform":"` + strings.Repeat("A", 2<<20) + `"}`)
	for _, path := range []string{"/v1/run", "/v1/campaigns", "/v1/fleet/register", "/v1/fleet/heartbeat"} {
		for _, declared := range []bool{true, false} {
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(big))
			if !declared {
				r.ContentLength = -1 // as a chunked body arrives
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusRequestEntityTooLarge || err != nil || doc.Error == "" {
				t.Errorf("%s (length declared: %v): status %d, body %.200s", path, declared, rec.Code, rec.Body)
			}
		}
	}
	if len(svc.Jobs()) != 0 {
		t.Errorf("an oversized body created %d jobs", len(svc.Jobs()))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(big))
	r.ContentLength = -1
	h.ServeHTTP(httptest.NewRecorder(), r)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<20 {
		t.Errorf("a 2 MiB body made the handler allocate %.1f MiB", float64(n)/(1<<20))
	}
}

// TestAPIRunLengthNotReserved: a POST /v1/run that declares a 1 MiB
// body makes the handler allocate far less than that before the first
// body byte arrives, so a client that sends only headers cannot make
// zngd hold the cap for it.
func TestAPIRunLengthNotReserved(t *testing.T) {
	svc := New(Config{Workers: 1, Simulate: fixedSim(1)})
	t.Cleanup(svc.Close)
	h := NewHandler(svc, config.Default())
	body := &stalledBody{}
	r := httptest.NewRequest(http.MethodPost, "/v1/run", body)
	r.ContentLength = MaxBodyBytes
	runtime.GC()
	runtime.ReadMemStats(&body.start)
	h.ServeHTTP(httptest.NewRecorder(), r)
	if !body.read {
		t.Fatal("the handler never read the body")
	}
	if body.alloc >= 256<<10 {
		t.Errorf("a declared 1 MiB body made the handler allocate %.0f KiB before any of it arrived", float64(body.alloc)/(1<<10))
	}
}

// stalledBody is a request body whose client hangs up before sending
// a byte. Its first Read records what the handler allocated up to then.
type stalledBody struct {
	start runtime.MemStats
	alloc uint64
	read  bool
}

func (b *stalledBody) Read([]byte) (int, error) {
	if !b.read {
		var now runtime.MemStats
		runtime.ReadMemStats(&now)
		b.alloc, b.read = now.TotalAlloc-b.start.TotalAlloc, true
	}
	return 0, io.ErrUnexpectedEOF
}

// TestAPIRunRejectsUnfitTraces: a weight or scale whose trace would not
// fit is a 400 naming the component, answered before admission.
func TestAPIRunRejectsUnfitTraces(t *testing.T) {
	srv, svc := newTestServer(t, fixedSim(1))
	for _, body := range []string{
		`{"platform":"GDDR5","apps":"bfs1*inf","scale":1}`,
		`{"platform":"GDDR5","apps":"bfs1*1e308","scale":1}`,
		`{"platform":"GDDR5","mix":"solo-bfs1","scale":1e308}`,
	} {
		resp, doc := postRun(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(doc["error"]), "bfs1") {
			t.Errorf("%s: status %d, error %s; want 400 naming bfs1", body, resp.StatusCode, doc["error"])
		}
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("rejected runs left %d jobs", n)
	}
}

// TestAPIRunUnknownFieldNamed: an unknown key in a run request, at the
// top or inside "config", is a 400 that names it. A configuration
// field that no model read and that left config.Config is such a key.
func TestAPIRunUnknownFieldNamed(t *testing.T) {
	srv, _ := newTestServer(t, fixedSim(1))
	for body, name := range map[string]string{
		`{"platform":"ZnG","mix":"betw-back","scalee":2}`:                             "scalee",
		`{"platform":"ZnG","mix":"betw-back","config":{"Flash":{"Bogus":1}}}`:         "Flash.Bogus",
		`{"platform":"ZnG","mix":"betw-back","config":{"GPU":{"WarpSize":32}}}`:       "GPU.WarpSize",
		`{"platform":"ZnG","mix":"betw-back","config":{"GPU":{"IssuePerCyc":1}}}`:     "GPU.IssuePerCyc",
		`{"platform":"ZnG","mix":"betw-back","config":{"MMU":{"WalkBufEntries":64}}}`: "MMU.WalkBufEntries",
		`{"platform":"ZnG","mix":"betw-back","config":{"Flash":{"IOPortsPerPkg":2}}}`: "Flash.IOPortsPerPkg",
		`{"platform":"GDDR5","mix":"betw-back","config":{"GDDR5":{"Kind":0}}}`:        "GDDR5.Kind",
		`{"platform":"Optane","mix":"betw-back","config":{"Optane":{"Kind":3}}}`:      "Optane.Kind",
		`{"platform":"ZnG","mix":"betw-back","config":{"FTL":{"OPFraction":0.07}}}`:   "FTL.OPFraction",
		// Only Fig. 3 and Fig. 4c read these; they left config.Config.
		`{"platform":"GDDR5","mix":"betw-back","config":{"DDR4":{"TotalGBps":256}}}`:       "DDR4",
		`{"platform":"GDDR5","mix":"betw-back","config":{"LPDDR4":{}}}`:                    "LPDDR4",
		`{"platform":"GDDR5","mix":"betw-back","config":{"GDDR5":{"PkgCapacityGB":1}}}`:    "GDDR5.PkgCapacityGB",
		`{"platform":"Optane","mix":"betw-back","config":{"Optane":{"PowerWPerGB":0.05}}}`: "Optane.PowerWPerGB",
	} {
		resp, doc := postRun(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(doc["error"]), name) {
			t.Errorf("%s: status %d, error %s; want 400 naming %s", body, resp.StatusCode, doc["error"], name)
		}
	}
}

// TestOverrideDecodesAsRunConfig: a partial config document means one
// thing. Applied as a campaign override and sent as POST /v1/run's
// "config", it hands the simulator the same configuration under the
// same cell key, and a document one side refuses, the other refuses
// with the same error: a value out of range, an unknown field, and an
// integer beyond int64, which names its field.
func TestOverrideDecodesAsRunConfig(t *testing.T) {
	var mu sync.Mutex
	var ran []config.Config
	srv, _ := newTestServer(t, func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		ran = append(ran, cfg)
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
	})
	const doc = `{"L2STT":{"Sets":8192},"flash":{"channels":8},"Prefetch":{"HighWaste":0.8,"LowWaste":0.2},"RegCache":{"Net":0}}`
	spec := campaign.Spec{Platforms: []string{"ZnG"}, Scenarios: []string{"betw-back"}, Scales: []float64{0.5},
		Overrides: []campaign.Override{{Config: json.RawMessage(doc)}}}
	cells, err := spec.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if resp, reply := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5,"config":`+doc+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, reply["error"])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != cells[0].Cfg {
		t.Fatalf("/v1/run simulated %+v, the override applies to %+v", ran, cells[0].Cfg)
	}
	if k := cellkey.Key(platform.ZnG, cells[0].Mix.ID(), 0.5, ran[0]); k != cells[0].Key {
		t.Errorf("/v1/run keys the cell %s, the campaign %s", k, cells[0].Key)
	}

	// The errors agree from "config: " on; what precedes it says where
	// the document sat.
	tail := func(msg string) string { return msg[max(strings.Index(msg, "config: "), 0):] }
	for _, bad := range []string{
		`{"L2STT":{"Sets":1099511627776}}`,
		`{"L2STT":{"Setz":8}}`,
		`{"L2STT":{"Sets":18446744073709552640}}`,
	} {
		_, err := campaign.Override{Config: json.RawMessage(bad)}.Apply(config.Default())
		resp, reply := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","config":`+bad+`}`)
		var msg string
		if jerr := json.Unmarshal(reply["error"], &msg); jerr != nil || resp.StatusCode != http.StatusBadRequest || err == nil {
			t.Errorf("%s: /v1/run status %d, error %s; Apply error %v; want both refused", bad, resp.StatusCode, reply["error"], err)
			continue
		}
		if !strings.Contains(msg, "L2STT.Set") || tail(msg) != tail(err.Error()) {
			t.Errorf("%s: /v1/run refused it with %q, Apply with %q", bad, msg, err)
		}
	}
}
