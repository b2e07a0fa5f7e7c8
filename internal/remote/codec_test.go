package remote_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/report"
	"zng/internal/simsvc"
	"zng/internal/workload"
)

// refClientRequest is the body Client marshalled with encoding/json
// before RunRequest had a codec.
type refClientRequest struct {
	Platform string         `json:"platform"`
	Apps     string         `json:"apps"`
	Scale    float64        `json:"scale"`
	Async    bool           `json:"async"`
	Config   *config.Config `json:"config,omitempty"`
}

// refRunRequest is the POST /v1/run body as zngd declared it for
// json.Decoder before RunRequest had a codec.
type refRunRequest struct {
	Platform string         `json:"platform"`
	Mix      string         `json:"mix,omitempty"`
	Apps     string         `json:"apps,omitempty"`
	Scale    float64        `json:"scale,omitempty"`
	Priority int            `json:"priority,omitempty"`
	Async    bool           `json:"async,omitempty"`
	Config   *config.Config `json:"config,omitempty"`
}

// refDecodeRequest is zngd's old decode: json.Decoder with
// DisallowUnknownFields over a request whose config points at a copy of
// the base. clean reports that only whitespace follows the object.
func refDecodeRequest(base config.Config, b []byte) (req remote.RunRequest, clean bool, err error) {
	ref := refRunRequest{Config: &base}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&ref); err != nil {
		return req, false, err
	}
	clean = len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) == 0
	return remote.RunRequest(ref), clean, nil
}

// decodeRequest is zngd's decode: RunRequest.DecodeJSON over a request
// whose config points at a copy of the base.
func decodeRequest(base config.Config, b []byte) (remote.RunRequest, error) {
	req := remote.RunRequest{Config: &base}
	err := req.DecodeJSON(b)
	return req, err
}

// sameRequest compares two decoded requests by value, configs included.
func sameRequest(a, b remote.RunRequest) bool {
	ac, bc := a.Config, b.Config
	a.Config, b.Config = nil, nil
	return a == b && (ac == nil) == (bc == nil) && (ac == nil || *ac == *bc)
}

// randCell draws a cell as a campaign would hand it to Client: any
// platform, a registered scenario or a weighted ad-hoc mix, a scale
// and a configuration with a few fields moved off Table I.
func randCell(rng *rand.Rand) (platform.Kind, workload.Mix, float64, config.Config) {
	kinds := platform.AllKinds()
	scenarios := workload.Scenarios()
	mix := scenarios[rng.IntN(len(scenarios))]
	if rng.IntN(2) == 0 {
		mix = workload.Mix{Components: []workload.Component{
			{App: "bfs1", Weight: []float64{0.5, 1.5, 2, 1e-7, 3e6}[rng.IntN(5)]}, {App: "gaus", Weight: 1}}}
	}
	cfg := config.Default()
	cfg.Flash.Channels = 1 << rng.IntN(6)
	cfg.FTL.GCThreshold = rng.Float64() / 1e7
	cfg.L2STT.ReadOnly = rng.IntN(2) == 0
	cfg.RegCache.Net = config.RegCacheNet(rng.IntN(3))
	return kinds[rng.IntN(len(kinds))], mix, []float64{0.05, 0.1, 1.28, 2, 1e-7, 1e21}[rng.IntN(6)], cfg
}

// TestClientRequestBytesUnchanged: the body Client sends is the bytes
// json.Marshal wrote before the codec, and zngd decodes it, over any
// base, to exactly the cell it carries, as the old decoder did.
func TestClientRequestBytesUnchanged(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 902))
	for i := range 2000 {
		kind, mix, scale, cfg := randCell(rng)
		apps := strings.ReplaceAll(mix.ID(), "+", ",")
		req := remote.RunRequest{Platform: kind.String(), Apps: apps, Scale: scale, Async: true, Config: &cfg}
		got, err := req.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(refClientRequest{kind.String(), apps, scale, true, &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d: body differs from json.Marshal's\n got %s\nwant %s", i, got, want)
		}
		base := config.Default()
		base.GPU.SMs = 3
		dec, err := decodeRequest(base, got)
		ref, _, refErr := refDecodeRequest(base, got)
		if err != nil || refErr != nil || !sameRequest(dec, req) || !sameRequest(ref, req) {
			t.Fatalf("cell %d: decoded %+v (%v), old decoder %+v (%v), want %+v", i, dec, err, ref, refErr, req)
		}
	}
}

// FuzzRunRequest holds zngd's request decoder to the json.Decoder path
// it replaced: whatever it accepts, the old path accepts as the same
// request with the same effective configuration; whatever the old path
// accepts with only whitespace after the object, it accepts. Seeds:
// testdata/fuzz/FuzzRunRequest.
func FuzzRunRequest(f *testing.F) {
	base := config.Default()
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeRequest(base, b)
		want, clean, refErr := refDecodeRequest(base, b)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted a body the old decoder rejects (%v):\n%q", refErr, b)
		case err == nil && !sameRequest(got, want):
			t.Fatalf("decoded\n%+v\nthe old decoder decoded\n%+v\nfrom %q", got, want, b)
		case err != nil && refErr == nil && clean:
			t.Fatalf("rejected a body the old decoder accepts (%v):\n%q", err, b)
		}
	})
}

// refEnvelope is the reply as Client decoded it with json.Decoder
// before the reply reader.
type refEnvelope struct {
	Error string `json:"error"`
	Job   struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	} `json:"job"`
	Result json.RawMessage `json:"result"`
	Spans  []obs.Record    `json:"spans"`
}

// checkReply requires the reply reader to read b as the old decoder
// did, when it reads b at all; it reports whether it did.
func checkReply(t *testing.T, b []byte) bool {
	t.Helper()
	env, err := remote.ParseEnvelope(b)
	if err != nil {
		return false
	}
	var ref refEnvelope
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&ref); err != nil {
		t.Fatalf("read a reply the old decoder rejects (%v):\n%q", err, b)
	}
	if env.Error != ref.Error || env.Job.ID != ref.Job.ID || env.Job.State != ref.Job.State || env.Job.Error != ref.Job.Error {
		t.Fatalf("read error %q, job %+v; the old decoder read %q, %+v\n%q", env.Error, env.Job, ref.Error, ref.Job, b)
	}
	if !bytes.Equal(env.Result, ref.Result) || (env.Result == nil) != (ref.Result == nil) {
		t.Fatalf("read result %q; the old decoder read %q", env.Result, ref.Result)
	}
	if !reflect.DeepEqual(env.Spans, ref.Spans) {
		t.Fatalf("read spans %+v; the old decoder read %+v", env.Spans, ref.Spans)
	}
	return true
}

// FuzzReadReply: the reply reader never panics, and whatever it reads,
// the old json.Decoder path read the same way. Seeds, one per reply
// shape zngd writes: testdata/fuzz/FuzzReadReply.
func FuzzReadReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { checkReply(t, b) })
}

// replyShapes serves one reply of each shape a zngd handler writes to
// Client: 200 with a result, 202 with a queued job, a failed job, a
// bare error, and a traced 200 carrying the worker's spans.
func replyShapes(t *testing.T) map[string][]byte {
	t.Helper()
	gate := make(chan struct{})
	svc := simsvc.New(simsvc.Config{Workers: 2, Tracer: obs.New("worker", 256, 1),
		Simulate: func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
			switch mix.ID() {
			case "gaus":
				<-gate
			case "pr":
				return platform.Result{}, errors.New("platform: <boom> & \"more\"")
			}
			return platform.Result{Kind: kind, Workload: mix.Name, IPC: 0.5, Cycles: 7, Insts: 9,
				PlaneWrites: []uint64{1, 2, 3}, Extra: map[string]float64{"mapped_pages": 3}}, nil
		}})
	t.Cleanup(svc.Close)
	t.Cleanup(func() { close(gate) }) // runs first: Close waits for the gated cell
	h := simsvc.NewHandler(svc, config.Default())
	serve := func(target, body string, traced bool) []byte {
		r := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
		if traced {
			caller := obs.New("caller", 64, 1)
			r.Header.Set(obs.Header, caller.StartRoot("peer", "w").Context().Encode())
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Body.Bytes()
	}
	failed := serve("/v1/run?wait=10s", `{"platform":"ZnG","apps":"pr","scale":0.5,"async":true}`, false)
	return map[string][]byte{
		"result":     serve("/v1/run?wait=10s", `{"platform":"ZnG","apps":"bfs1","scale":0.5,"async":true}`, false),
		"accepted":   serve("/v1/run", `{"platform":"ZnG","apps":"gaus","scale":0.5,"async":true}`, false),
		"failed job": failed,
		"bare error": serve("/v1/run", `{"platform":"GTX9000","apps":"bfs1"}`, false),
		"traced":     serve("/v1/run?wait=10s", `{"platform":"GDDR5","apps":"bfs1","scale":0.5,"async":true}`, true),
	}
}

// TestReadReplyShapes: every reply shape zngd writes reads as the old
// decoder read it, and carries what Client needs from it.
func TestReadReplyShapes(t *testing.T) {
	for name, b := range replyShapes(t) {
		if !checkReply(t, b) {
			t.Fatalf("%s: reply not read:\n%s", name, b)
		}
		env, _ := remote.ParseEnvelope(b)
		var ok bool
		switch name {
		case "result":
			_, err := report.DecodeResult(env.Result)
			ok = env.Job.State == "done" && err == nil
		case "accepted":
			ok = env.Job.ID != "" && env.Result == nil
		case "failed job":
			ok = env.Job.State == "error" && strings.Contains(env.Job.Error, "<boom>")
		case "bare error":
			ok = strings.Contains(env.Error, "GTX9000") && env.Job.ID == ""
		case "traced":
			ok = env.Job.State == "done" && len(env.Spans) > 0
		}
		if !ok {
			t.Errorf("%s: read %+v from\n%s", name, env, b)
		}
	}
}

// TestClientRejectsMalformedReplies: a reply the reader cannot read is
// a PeerError, which the dispatcher routes around.
func TestClientRejectsMalformedReplies(t *testing.T) {
	for _, body := range []string{"", "{", `{"job":{"id":"job-1","state":"done"},"result":{}} trailing`,
		`{"job":{"id":5}}`, `{"job":[]}`, "<html>bad gateway</html>", `{"job":{"id":"job-1","state":"done"},"result":null}`} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(body))
		}))
		_, err := remote.NewClient(srv.URL).Run(platform.ZnG, testMix(t, "solo-bfs1"), 0.5, config.Default())
		srv.Close()
		var pe *remote.PeerError
		if !errors.As(err, &pe) {
			t.Errorf("reply %q: error %v, want a PeerError", body, err)
		}
	}
}

// BenchmarkRunCodec times the codecs of one remote cell: encoding the
// request Client sends, zngd decoding it over its base, and Client
// reading a 1,024-plane result reply.
func BenchmarkRunCodec(b *testing.B) {
	cfg := config.Default()
	req := remote.RunRequest{Platform: "ZnG", Apps: "bfs1,gaus", Scale: 2, Async: true, Config: &cfg}
	body, err := req.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	res := platform.Result{Kind: platform.ZnG, Workload: "bfs1-gaus", IPC: 0.52147, Cycles: 41_234_567, Insts: 51_800_000,
		PlaneWrites: make([]uint64, 1024), Extra: map[string]float64{"mapped_pages": 42, "reg_hits": 7}}
	for i := range res.PlaneWrites {
		res.PlaneWrites[i] = uint64(i % 40)
	}
	doc := bytes.ReplaceAll(report.EncodeResult(res), []byte("\n"), []byte("\n  "))
	reply := append(append([]byte(`{
  "job": {
    "id": "job-17",
    "state": "done",
    "platform": "ZnG",
    "workload": "bfs1-gaus",
    "mix": "bfs1+gaus",
    "scale": 2,
    "priority": 0,
    "waiters": 0,
    "source": "memory"
  },
  "result": `), bytes.TrimSpace(doc)...), "\n}\n"...)
	b.Run("encode-request", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := req.AppendJSON(make([]byte, 0, 3<<10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-request", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := decodeRequest(cfg, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-reply", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(reply)))
		for b.Loop() {
			env, err := remote.ParseEnvelope(reply)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := report.DecodeResult(env.Result); err != nil {
				b.Fatal(err)
			}
		}
	})
}
