package simsvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zng/internal/config"
	"zng/internal/fleet"
	"zng/internal/store"
)

// newFleetServer boots the API as a fleet coordinator over a stub
// simulator and a store rooted at dir.
func newFleetServer(t *testing.T, dir string, sim SimFunc) (*httptest.Server, *Service, *fleet.Coordinator) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, Simulate: sim, Store: st})
	t.Cleanup(svc.Close)
	fc := fleet.New(fleet.Config{Local: svc, Store: st, Workers: 2, Base: config.Default()})
	srv := httptest.NewServer(NewHandler(svc, config.Default(), WithFleet(fc)))
	t.Cleanup(srv.Close)
	return srv, svc, fc
}

// postJSON posts a body and decodes the reply envelope.
func postJSON(t *testing.T, url, body string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
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

// waitCampaign polls a campaign over the API until it is done.
func waitCampaign(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var c struct {
			State string `json:"state"`
		}
		if code := getJSON(t, base+"/v1/campaigns/"+id, &c); code != http.StatusOK {
			t.Fatalf("campaign %s: status %d", id, code)
		}
		if c.State == "done" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Without WithFleet the handler builds its own coordinator over the
// service: campaigns checkpoint into the service's store and resume on
// a fresh handler over the same directory with zero re-simulation, a
// rejected spec writes nothing, and the fleet endpoints answer.
func TestAPIBuildsItsOwnCoordinator(t *testing.T) {
	dir := t.TempDir()
	serve := func() (*httptest.Server, *Service) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Workers: 2, Simulate: fixedSim(2), Store: st})
		t.Cleanup(svc.Close)
		srv := httptest.NewServer(NewHandler(svc, config.Default()))
		t.Cleanup(srv.Close)
		return srv, svc
	}

	srv1, _ := serve()
	resp, doc := postJSON(t, srv1.URL+"/v1/campaigns", `{"platforms":["ZnG"],"scenarios":["solo-bfs1","solo-gaus"],"scales":[0.5]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start = %d (%s)", resp.StatusCode, doc["error"])
	}
	var c struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(doc["campaign"], &c); err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, srv1.URL, c.ID)
	if resp, _ := postJSON(t, srv1.URL+"/v1/campaigns", `{"platforms":["GTX9000"],"scenarios":["solo-bfs1"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown platform = %d, want 400", resp.StatusCode)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "campaigns")); err != nil || len(ents) != 1 || ents[0].Name() != c.ID {
		t.Fatalf("checkpoints = %v (%v), want only campaign %s", ents, err, c.ID)
	}
	srv1.Close()

	srv2, svc2 := serve()
	if resp, doc := postJSON(t, srv2.URL+"/v1/campaigns/"+c.ID+"/resume", `{}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume = %d (%s)", resp.StatusCode, doc["error"])
	}
	waitCampaign(t, srv2.URL, c.ID)
	if got := svc2.Stats().Sims; got != 0 {
		t.Errorf("resume re-simulated %d cells, want 0", got)
	}
	if resp, doc := postJSON(t, srv2.URL+"/v1/fleet/register", `{"addr":"127.0.0.1:9001"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d (%s)", resp.StatusCode, doc["error"])
	}
	var roster struct {
		Peers []fleet.Peer `json:"peers"`
	}
	if code := getJSON(t, srv2.URL+"/v1/fleet", &roster); code != http.StatusOK || len(roster.Peers) != 1 {
		t.Errorf("GET /v1/fleet = %d with peers %+v, want 200 with the registered worker", code, roster.Peers)
	}
}

// ServeMux unescapes %2F, so a traversal id reaches the resume handler
// whole. An id not of CampaignID's form is 404 before the disk is
// touched, whether or not the file it would name exists, so a client
// cannot probe for files outside the store.
func TestAPIResumeRejectsTraversalIDs(t *testing.T) {
	root := t.TempDir()
	srv, _, _ := newFleetServer(t, filepath.Join(root, "store"), fixedSim(1))
	// <store>/campaigns/../../outside/spec.json is <root>/outside/spec.json.
	outside := filepath.Join(root, "outside")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := `{"v":1,"spec":{"platforms":["ZnG"],"scenarios":["solo-bfs1"]}}`
	if err := os.WriteFile(filepath.Join(outside, "spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"..%2F..%2Foutside", "..%2F..%2Fmissing"} {
		resp, doc := postJSON(t, srv.URL+"/v1/campaigns/"+id+"/resume", `{}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("resume %s = %d (%s), want 404", id, resp.StatusCode, doc["error"])
		}
	}
}

func TestAPIFleetRegisterHeartbeat(t *testing.T) {
	srv, _, _ := newFleetServer(t, t.TempDir(), fixedSim(1))

	resp, doc := postJSON(t, srv.URL+"/v1/fleet/register", `{"addr":"127.0.0.1:9001"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d (%s)", resp.StatusCode, doc["error"])
	}
	var reply struct {
		Peer struct {
			ID   string `json:"id"`
			Addr string `json:"addr"`
		} `json:"peer"`
		HeartbeatMS int64 `json:"heartbeat_ms"`
	}
	raw, _ := json.Marshal(doc)
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Peer.ID == "" || reply.HeartbeatMS <= 0 {
		t.Fatalf("register reply missing id or cadence: %+v", reply)
	}

	hb, hbDoc := postJSON(t, srv.URL+"/v1/fleet/heartbeat", `{"id":"`+reply.Peer.ID+`","load":3}`)
	if hb.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat = %d (%s)", hb.StatusCode, hbDoc["error"])
	}
	// An unknown (expired, or pre-restart) id is 404 — the agent's
	// signal to re-register.
	gone, _ := postJSON(t, srv.URL+"/v1/fleet/heartbeat", `{"id":"p-404","load":0}`)
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat unknown id = %d, want 404", gone.StatusCode)
	}

	fr, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	var status struct {
		Peers []struct {
			ID   string `json:"id"`
			Addr string `json:"addr"`
			Load int    `json:"load"`
		} `json:"peers"`
		Gauges struct {
			PeersLive int `json:"peers_live"`
		} `json:"gauges"`
	}
	if err := json.NewDecoder(fr.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Peers) != 1 || status.Peers[0].ID != reply.Peer.ID || status.Peers[0].Load != 3 {
		t.Fatalf("fleet status peers = %+v", status.Peers)
	}
	if status.Gauges.PeersLive != 1 {
		t.Fatalf("peers_live = %d, want 1", status.Gauges.PeersLive)
	}

	// /metrics grows the fleet gauge block on coordinators.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var m struct {
		Fleet *struct {
			PeersLive int `json:"peers_live"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Fleet == nil || m.Fleet.PeersLive != 1 {
		t.Fatalf("metrics fleet block = %+v, want peers_live 1", m.Fleet)
	}
}

// A campaign started through a coordinator API runs under its
// content-addressed id, checkpoints into the store, and a fresh
// coordinator over the same store resumes it by id with zero
// re-simulation.
func TestAPIFleetCampaignResume(t *testing.T) {
	dir := t.TempDir()
	spec := `{"name":"api-resume","platforms":["ZnG"],"scenarios":["betw-back","solo-bfs1"],"scales":[0.5,1]}`

	srv1, _, fc1 := newFleetServer(t, dir, fixedSim(2))
	resp, doc := postJSON(t, srv1.URL+"/v1/campaigns", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start = %d (%s)", resp.StatusCode, doc["error"])
	}
	var started struct {
		Campaign struct {
			ID string `json:"id"`
		} `json:"campaign"`
	}
	raw, _ := json.Marshal(doc)
	if err := json.Unmarshal(raw, &started); err != nil {
		t.Fatal(err)
	}
	id := started.Campaign.ID
	c1, ok := fc1.Campaigns().Get(id)
	if !ok {
		t.Fatalf("campaign %q not in coordinator manager", id)
	}
	if out := c1.Wait(); out.Err() != nil {
		t.Fatal(out.Err())
	}
	var table1 json.RawMessage
	func() {
		r, err := http.Get(srv1.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var detail struct {
			Table json.RawMessage `json:"table"`
		}
		if err := json.NewDecoder(r.Body).Decode(&detail); err != nil {
			t.Fatal(err)
		}
		table1 = detail.Table
	}()
	srv1.Close()

	// Fresh process, same store directory: resume by id.
	srv2, svc2, fc2 := newFleetServer(t, dir, fixedSim(2))
	miss, _ := postJSON(t, srv2.URL+"/v1/campaigns/0000/resume", `{}`)
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("resume unknown id = %d, want 404", miss.StatusCode)
	}
	rr, rdoc := postJSON(t, srv2.URL+"/v1/campaigns/"+id+"/resume", `{}`)
	if rr.StatusCode != http.StatusAccepted {
		t.Fatalf("resume = %d (%s)", rr.StatusCode, rdoc["error"])
	}
	c2, ok := fc2.Campaigns().Get(id)
	if !ok {
		t.Fatalf("resumed campaign %q not in manager", id)
	}
	if out := c2.Wait(); out.Err() != nil {
		t.Fatal(out.Err())
	}
	if got := svc2.Stats().Sims; got != 0 {
		t.Fatalf("resume re-simulated %d cells, want 0", got)
	}
	r2, err := http.Get(srv2.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var detail2 struct {
		Table json.RawMessage `json:"table"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&detail2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(table1, detail2.Table) {
		t.Fatalf("resumed table differs from original:\n%s\nvs\n%s", table1, detail2.Table)
	}
}
