// Package fleet is the elastic coordination layer over the
// distributed serving stack: a Coordinator that workers register with
// and heartbeat to (the zngd -coordinator worker mode), a dynamic
// dispatch surface over internal/remote that reassigns a dead peer's
// cells and folds newly registered workers into campaigns already
// running, and durable campaigns. A campaign's checkpoint is its Spec,
// written into the store directory under the campaign's
// content-addressed id, plus the store itself: the coordinator reads
// the store before it dispatches any cell and writes every fresh
// result back, so a restarted coordinator (or a brand-new one pointed
// at the same directory) resumes a half-finished sweep by re-expanding
// the spec and dispatching only the cells the store lacks.
//
// Determinism is preserved end to end: simulations are pure functions
// of their content-addressed cells, so a campaign that rode out worker
// churn, coordinator restarts and store-served resumption folds the
// byte-identical matrix a single uninterrupted local run produces.
package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"zng/internal/campaign"
	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/store"
	"zng/internal/workload"
)

// DefaultTTL is how long a registered worker may go without a
// heartbeat before the coordinator declares it dead, removes it from
// dispatch, and lets its in-flight cells reassign to surviving peers.
const DefaultTTL = 15 * time.Second

// ErrUnknownPeer is returned by Heartbeat for an id the coordinator
// does not know — expired, never registered, or registered with an
// earlier coordinator process. The worker's move is to re-register
// (the Agent does this automatically), which re-joins it to any
// campaign still running.
var ErrUnknownPeer = errors.New("fleet: unknown peer")

// Config parameterizes a Coordinator.
type Config struct {
	// Local runs cells when no worker is live (and when every live
	// worker faults on a cell) — typically the zngd process's own
	// simsvc service, so a coordinator with zero workers degrades to
	// exactly the single-process behavior. Required.
	Local campaign.Runner
	// Store answers every cell it holds before dispatch and receives
	// every fresh result after it; campaign specs checkpoint under
	// <dir>/campaigns/. nil disables durability: campaigns still run
	// under content-addressed ids, they just do not survive the
	// process.
	Store *store.Store
	// TTL is the heartbeat expiry window (0 = DefaultTTL).
	TTL time.Duration
	// Cooldown is how long a faulted peer sits out of dispatch
	// (0 = remote.DefaultCooldown).
	Cooldown time.Duration
	// Timeout overrides the per-request timeout of every peer client
	// (0 = remote.DefaultTimeout).
	Timeout time.Duration
	// Workers bounds a campaign's concurrently in-flight cells
	// (0 = NumCPU).
	Workers int
	// Base is the configuration campaign overrides perturb.
	Base config.Config
	// Tracer, when set, threads span contexts through dispatch: durable
	// campaigns root one trace each, every cell records a dispatch span
	// here, and worker-side spans come back piggybacked on peer
	// replies. nil runs untraced.
	Tracer *obs.Tracer
	// Log receives structured membership events (worker registration,
	// heartbeat expiry with the reassignment fallout). nil discards.
	Log *slog.Logger
}

// Peer is one registered worker's externally visible state.
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Load is the backlog the worker last heartbeat (queued + running
	// jobs on its service).
	Load int `json:"load"`
	// AgeMS is how long ago the last heartbeat (or registration)
	// arrived, in milliseconds.
	AgeMS int64 `json:"age_ms"`
}

// Gauges is the fleet block of /metrics.
type Gauges struct {
	// PeersLive is the currently registered, un-expired worker count.
	PeersLive int `json:"peers_live"`
	// PeersDead counts heartbeat expiries since the coordinator
	// started (cumulative; a worker that expires and re-registers
	// counts once per expiry).
	PeersDead uint64 `json:"peers_dead"`
	// CellsReassigned counts cells that faulted on one peer and went
	// back to dispatch for another.
	CellsReassigned uint64 `json:"cells_reassigned"`
	// CampaignsResumed counts campaigns whose spec was already
	// checkpointed in the store when they started.
	CampaignsResumed uint64 `json:"campaigns_resumed"`
}

// peerState is one registered worker.
type peerState struct {
	id       string
	addr     string // normalized base URL (remote.Client.Addr form)
	load     int
	lastBeat time.Time
}

// Coordinator owns the fleet: worker registration and heartbeats on
// one side, campaign dispatch over the live membership on the other.
// It implements campaign.Runner — one cell at a time, served from the
// store when it holds the cell, otherwise dispatched to the
// least-loaded live peer, falling back to the Local runner when the
// fleet is empty or every peer faults — so the durable campaign layer
// (campaigns.go) and any other matrix driver fan out over the fleet
// without knowing it. Safe for concurrent use.
type Coordinator struct {
	local campaign.Runner
	disp  *remote.Dispatcher
	st    *store.Store
	ttl   time.Duration
	camps *Campaigns
	tr    *obs.Tracer  // nil = untraced
	log   *slog.Logger // never nil (NopLogger when unset)

	mu     sync.Mutex
	peers  map[string]*peerState // guarded by mu; peer id -> state
	byAddr map[string]string     // guarded by mu; normalized addr -> peer id
	nextID uint64                // guarded by mu
	dead   uint64                // guarded by mu; cumulative heartbeat expiries
}

// New builds a coordinator. See Config for the knobs; only Local is
// required.
func New(cfg Config) *Coordinator {
	if cfg.Local == nil {
		panic("fleet: coordinator needs a local runner")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	disp := remote.NewDynamic(cfg.Cooldown)
	if cfg.Timeout > 0 {
		disp.SetTimeout(cfg.Timeout)
	}
	if cfg.Tracer != nil {
		disp.SetTracer(cfg.Tracer)
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	c := &Coordinator{
		local:  cfg.Local,
		disp:   disp,
		st:     cfg.Store,
		ttl:    cfg.TTL,
		tr:     cfg.Tracer,
		log:    obs.Sub(cfg.Log, "fleet"),
		peers:  map[string]*peerState{},
		byAddr: map[string]string{},
	}
	c.camps = newCampaigns(c, cfg)
	return c
}

// TTL reports the heartbeat expiry window (the interval hint the
// register reply carries is derived from it).
func (c *Coordinator) TTL() time.Duration { return c.ttl }

// Tracer reports the coordinator's tracer (nil when untraced).
func (c *Coordinator) Tracer() *obs.Tracer { return c.tr }

// Campaigns is the coordinator's durable campaign manager, the one
// behind the zngd API.
func (c *Coordinator) Campaigns() *Campaigns { return c.camps }

// Register joins a worker to the fleet under a fresh id and returns
// its peer record. Re-registering an address that is already live
// replaces the old registration (the old id expires immediately) —
// the restarted-worker case — and either way the worker starts
// receiving cells of campaigns already running on the next dispatch.
func (c *Coordinator) Register(addr string) (Peer, error) {
	if addr == "" {
		return Peer{}, errors.New("fleet: register needs an address")
	}
	norm := remote.NewClient(addr).Addr()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if old, ok := c.byAddr[norm]; ok {
		// Same address, new registration: the worker restarted (or its
		// agent re-registered after a missed heartbeat). Retire the old
		// identity without counting it dead — the worker is right here.
		delete(c.peers, old)
	}
	c.nextID++
	p := &peerState{
		id:       fmt.Sprintf("p-%d", c.nextID),
		addr:     norm,
		lastBeat: now,
	}
	c.peers[p.id] = p
	c.byAddr[norm] = p.id
	c.disp.AddPeer(norm)
	c.log.Info("worker registered", "peer", p.id, "addr", norm, "peers_live", len(c.peers))
	return peerInfo(p, now), nil
}

// Heartbeat refreshes a worker's liveness and load. An unknown id
// (expired or from a previous coordinator process) fails with
// ErrUnknownPeer; the worker re-registers.
func (c *Coordinator) Heartbeat(id string, load int) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	p, ok := c.peers[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownPeer, id)
	}
	p.lastBeat = now
	p.load = load
	return nil
}

// expireLocked retires every peer whose last heartbeat is older than
// the TTL: it leaves the fleet's dispatch rotation, its in-flight
// cells fault on their next round trip and reassign, and the
// cumulative dead counter grows. Expiry is lazy — evaluated on every
// registration, heartbeat, dispatch and snapshot — so the coordinator
// needs no timer goroutine. Caller holds mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, p := range c.peers {
		if now.Sub(p.lastBeat) <= c.ttl {
			continue
		}
		delete(c.peers, id)
		if c.byAddr[p.addr] == id {
			delete(c.byAddr, p.addr)
			c.disp.RemovePeer(p.addr)
		}
		c.dead++
		c.log.Warn("worker expired", "peer", id, "addr", p.addr,
			"silent", now.Sub(p.lastBeat).Round(time.Millisecond).String(),
			"peers_live", len(c.peers), "cells_reassigned", c.disp.Reassigned())
	}
}

// Peers snapshots the live fleet, registration order not guaranteed
// (callers sort for display).
func (c *Coordinator) Peers() []Peer {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	out := make([]Peer, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, peerInfo(p, now))
	}
	return out
}

func peerInfo(p *peerState, now time.Time) Peer {
	return Peer{ID: p.id, Addr: p.addr, Load: p.load, AgeMS: now.Sub(p.lastBeat).Milliseconds()}
}

// Gauges snapshots the fleet metrics block.
func (c *Coordinator) Gauges() Gauges {
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	live := len(c.peers)
	dead := c.dead
	c.mu.Unlock()
	return Gauges{
		PeersLive:        live,
		PeersDead:        dead,
		CellsReassigned:  c.disp.Reassigned(),
		CampaignsResumed: c.camps.Resumed(),
	}
}

// Run implements campaign.Runner over the store and the fleet: a cell
// the store holds is answered with its stored document, whichever
// alias of the cell asked; any other cell is dispatched to
// the live membership, falling back to the Local runner when the
// fleet is empty or every peer faulted on the cell, and a successful
// result is written to the store. A deterministic simulation error
// from a peer is returned as-is — every worker (and the local runner)
// would compute the identical failure — and no error is ever stored,
// so a later run (a resume, say) tries the cell again.
func (c *Coordinator) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return c.run(obs.SpanContext{}, kind, mix, scale, cfg)
}

// RunTraced is Run under the caller's span context: each cell records
// a "dispatch" span here (detail: "store", "local", "fleet", or the
// local-fallback reason), a fresh result's write records a
// "store.write" span, the dispatcher's per-attempt peer spans and
// the workers' piggybacked spans nest under it, and a local fallback
// threads the same context into the local runner when it implements
// campaign.TracedRunner. It implements campaign.TracedRunner itself,
// so durable campaigns executed through the coordinator trace end to
// end.
func (c *Coordinator) RunTraced(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return c.run(sc, kind, mix, scale, cfg)
}

func (c *Coordinator) run(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	if c.st == nil {
		return c.dispatch(sc, kind, mix, scale, cfg)
	}
	key := cellkey.Key(kind, mix.ID(), scale, cfg)
	start := time.Now()
	if r, ok := c.st.Get(key); ok {
		c.tr.Observe(sc, "dispatch", "store", start, time.Since(start), nil)
		return r, nil
	}
	res, err := c.dispatch(sc, kind, mix, scale, cfg)
	if err == nil {
		// A failed write only costs a re-run on resume; the result in
		// hand is still the answer.
		span := c.span(sc, "store.write", key)
		span.EndErr(c.st.Put(key, res))
	}
	return res, err
}

// dispatch answers a cell on the live membership, falling back to the
// Local runner when the fleet is empty or every peer faulted.
func (c *Coordinator) dispatch(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	live := len(c.peers)
	c.mu.Unlock()
	if live == 0 {
		return c.runLocal(sc, "local", kind, mix, scale, cfg)
	}
	span := c.span(sc, "dispatch", "fleet")
	var res platform.Result
	var err error
	if dc := span.Context(); dc.Valid() {
		res, err = c.disp.RunTraced(dc, kind, mix, scale, cfg)
	} else {
		res, err = c.disp.Run(kind, mix, scale, cfg)
	}
	if err == nil {
		span.End()
		return res, nil
	}
	var pe *remote.PeerError
	if errors.Is(err, remote.ErrNoPeers) || errors.As(err, &pe) {
		// Every peer faulted (or the fleet emptied under us): the cell
		// is nobody's deterministic failure, so run it locally rather
		// than failing the campaign over transport weather.
		span.SetDetail("fleet: fell back local")
		span.End()
		return c.runLocal(sc, "local fallback", kind, mix, scale, cfg)
	}
	span.EndErr(err)
	return res, err
}

// runLocal answers a cell on the Local runner under a "dispatch" span
// (detail says why execution stayed local), threading the context
// through when the runner is traceable.
func (c *Coordinator) runLocal(sc obs.SpanContext, why string, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	span := c.span(sc, "dispatch", why)
	var res platform.Result
	var err error
	tl, ok := c.local.(campaign.TracedRunner)
	if dc := span.Context(); dc.Valid() && ok {
		res, err = tl.RunTraced(dc, kind, mix, scale, cfg)
	} else {
		res, err = c.local.Run(kind, mix, scale, cfg)
	}
	span.EndErr(err)
	return res, err
}

// span starts a child span when both a tracer and a valid parent are
// present; otherwise it returns the nil span, whose methods no-op.
func (c *Coordinator) span(sc obs.SpanContext, name, detail string) *obs.Span {
	if c.tr == nil {
		return nil
	}
	return c.tr.StartSpan(sc, name, detail)
}
