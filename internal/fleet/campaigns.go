package fleet

import (
	"fmt"
	"sync"

	"zng/internal/campaign"
	"zng/internal/config"
)

// DefaultMaxCampaigns bounds the finished campaigns a coordinator
// retains in memory. A finished campaign's Outcome carries every
// cell's result plus a full config per cell, so unbounded retention
// would grow a long-lived daemon's heap. Past the bound the oldest
// finished campaigns are evicted (running ones always stay); an
// evicted id reads as unknown to Get, and its per-cell results and
// checkpoint stay in the store, where Resume finds them.
const DefaultMaxCampaigns = 64

// Campaigns is the campaign manager behind the zngd API: Start, Get
// and List under content-addressed ids, with store-backed checkpoints
// and Resume. Every campaign runs its cells through the coordinator,
// which serves stored cells from the store and stores every fresh
// result, so a restarted coordinator — or a fresh one pointed at the
// same store directory — picks the sweep up where it died. Safe for
// concurrent use.
type Campaigns struct {
	co      *Coordinator
	ck      *Checkpointer
	workers int
	base    config.Config

	mu      sync.Mutex
	order   []*campaign.Campaign          // guarded by mu; start order
	byID    map[string]*campaign.Campaign // guarded by mu
	resumed uint64                        // guarded by mu; campaigns started over a checkpointed spec
}

func newCampaigns(co *Coordinator, cfg Config) *Campaigns {
	return &Campaigns{
		co:      co,
		ck:      NewCheckpointer(cfg.Store),
		workers: cfg.Workers,
		base:    cfg.Base,
		byID:    map[string]*campaign.Campaign{},
	}
}

// Start launches a campaign under its content-addressed id. Starting
// a spec whose id is already live (running or retained-done) returns
// the existing campaign — the idempotent-POST contract a client
// retrying over a flaky link wants. When the store already holds the
// id's spec (a sweep from a previous process), the campaign resumes:
// cells the store holds are served from it, the rest dispatch. A spec
// that does not expand is rejected before anything is written.
func (m *Campaigns) Start(spec campaign.Spec) (*campaign.Campaign, error) {
	if _, err := spec.Expand(m.base); err != nil {
		return nil, err
	}
	id, err := CampaignID(spec, m.base)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.byID[id]; ok {
		return c, nil
	}
	_, err = m.ck.LoadSpec(id)
	resuming := err == nil
	if err := m.ck.WriteSpec(id, spec); err != nil {
		return nil, err
	}
	exec := campaign.Executor{Runner: m.co, Workers: m.workers, Tracer: m.co.tr}
	run, err := exec.Start(spec, m.base)
	if err != nil {
		return nil, err
	}
	if resuming {
		m.resumed++
	}
	c := &campaign.Campaign{ID: id, Spec: spec, Run: run}
	m.order = append(m.order, c)
	m.byID[id] = c
	m.evictLocked()
	// Re-evict when this campaign finishes: campaigns that were running
	// (unevictable) during later Starts must not linger past the bound
	// just because no further Start ever happens.
	go func() {
		run.Wait()
		m.mu.Lock()
		m.evictLocked()
		m.mu.Unlock()
	}()
	return c, nil
}

// Resume restarts a checkpointed campaign by id: a live id returns
// the in-memory campaign, otherwise the spec reloads from the store
// and Starts — which by construction derives the same id and runs
// only the cells the store lacks. Unknown ids (no checkpoint on disk)
// fail.
func (m *Campaigns) Resume(id string) (*campaign.Campaign, error) {
	m.mu.Lock()
	c, ok := m.byID[id]
	m.mu.Unlock()
	if ok {
		return c, nil
	}
	spec, err := m.ck.LoadSpec(id)
	if err != nil {
		return nil, err
	}
	got, err := CampaignID(spec, m.base)
	if err != nil {
		return nil, err
	}
	if got != id {
		// The spec was edited, or the campaign ran over another base
		// configuration.
		return nil, fmt.Errorf("fleet: checkpoint %q reloads as campaign %q under this coordinator's configuration; refusing to resume it", id, got)
	}
	return m.Start(spec)
}

// Resumed reports how many campaigns started with their spec already
// checkpointed in the store — the campaigns_resumed gauge.
func (m *Campaigns) Resumed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resumed
}

// Get resolves a campaign by id.
func (m *Campaigns) Get(id string) (*campaign.Campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byID[id]
	return c, ok
}

// List snapshots every retained campaign in start order.
func (m *Campaigns) List() []*campaign.Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*campaign.Campaign, len(m.order))
	copy(out, m.order)
	return out
}

// evictLocked drops the oldest finished campaigns past
// DefaultMaxCampaigns. Running campaigns are never evicted, so the
// retained count can exceed the bound while more than that many are
// in flight. An evicted campaign's checkpoint survives on disk, so
// its id still answers through Resume. Caller holds mu.
func (m *Campaigns) evictLocked() {
	excess := len(m.order) - DefaultMaxCampaigns
	if excess <= 0 {
		return
	}
	keep := m.order[:0]
	for _, c := range m.order {
		if excess > 0 && c.Done() {
			delete(m.byID, c.ID)
			excess--
			continue
		}
		keep = append(keep, c)
	}
	for i := len(keep); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = keep
}
