package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// RegisterRequest is the POST /v1/fleet/register body: the address
// the worker serves /v1/run on, as reachable from the coordinator.
// The Agent sends it and simsvc's coordinator handler decodes it.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// RegisterReply is the coordinator's answer: the peer record plus the
// heartbeat cadence the worker should hold (derived from the
// coordinator's TTL with headroom for lost beats).
type RegisterReply struct {
	Peer Peer `json:"peer"`
	// HeartbeatMS is the interval the worker should heartbeat at.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest is the POST /v1/fleet/heartbeat body.
type HeartbeatRequest struct {
	ID   string `json:"id"`
	Load int    `json:"load"`
}

// Agent is the worker side of the fleet protocol: it registers the
// worker's serving address with a coordinator and heartbeats its load
// until stopped, transparently re-registering whenever the
// coordinator forgets it — a heartbeat lost past the TTL, or a
// coordinator restart (fresh process, empty registry). There is no
// explicit deregister: a SIGKILLed worker just stops beating and
// expires, which is the only path a kill -9 leaves anyway.
type Agent struct {
	coordinator string // coordinator base URL
	addr        string // this worker's advertised serving address
	load        func() int
	hc          *http.Client

	stop chan struct{}
	wg   sync.WaitGroup
}

// agentRetry is how long the agent waits to retry after a failed
// registration (coordinator not up yet, transient network fault).
const agentRetry = time.Second

// StartAgent registers addr with the coordinator at coordinatorURL
// ("host:port" or http:// URL) and keeps it registered until Stop.
// load reports the worker's current backlog for each heartbeat (nil
// beats 0). Registration failures retry forever — the worker may
// outlive many coordinators.
func StartAgent(coordinatorURL, addr string, load func() int) *Agent {
	if load == nil {
		load = func() int { return 0 }
	}
	if !strings.Contains(coordinatorURL, "://") {
		coordinatorURL = "http://" + coordinatorURL
	}
	a := &Agent{
		coordinator: strings.TrimRight(coordinatorURL, "/"),
		addr:        addr,
		load:        load,
		hc:          &http.Client{Timeout: 5 * time.Second},
		stop:        make(chan struct{}),
	}
	a.wg.Add(1)
	go a.loop()
	return a
}

// Stop halts the heartbeat loop and waits for it to exit. The
// registration expires on the coordinator after its TTL.
func (a *Agent) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	a.wg.Wait()
}

func (a *Agent) loop() {
	defer a.wg.Done()
	for {
		id, interval, err := a.register()
		if err != nil {
			if !a.sleep(agentRetry) {
				return
			}
			continue
		}
		for {
			if !a.sleep(interval) {
				return
			}
			if err := a.heartbeat(id); err != nil {
				// Expired, or a fresh coordinator that has never heard of
				// us: fall out to re-register.
				break
			}
		}
	}
}

// sleep waits d or until Stop; false means stop.
func (a *Agent) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.stop:
		return false
	case <-t.C:
		return true
	}
}

func (a *Agent) register() (id string, interval time.Duration, err error) {
	var reply RegisterReply
	if err := a.post("/v1/fleet/register", RegisterRequest{Addr: a.addr}, &reply); err != nil {
		return "", 0, err
	}
	interval = time.Duration(reply.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = DefaultTTL / 3
	}
	return reply.Peer.ID, interval, nil
}

func (a *Agent) heartbeat(id string) error {
	return a.post("/v1/fleet/heartbeat", HeartbeatRequest{ID: id, Load: a.load()}, nil)
}

func (a *Agent) post(path string, body, reply any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := a.hc.Post(a.coordinator+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: status %d", path, resp.StatusCode)
	}
	if reply == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// HeartbeatInterval is the cadence the register reply advertises for
// a given TTL: a third of the expiry window, so a worker survives two
// lost beats before it is declared dead.
func HeartbeatInterval(ttl time.Duration) time.Duration { return ttl / 3 }
