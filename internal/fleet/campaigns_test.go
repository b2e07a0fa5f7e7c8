package fleet_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/fleet"
	"zng/internal/platform"
	"zng/internal/store"
	"zng/internal/workload"
)

// soloSpec is a one-platform campaign over the given scenarios. Ids
// are content addressed, so tests that need distinct campaigns vary
// the name or the scenarios.
func soloSpec(name string, scenarios ...string) campaign.Spec {
	return campaign.Spec{Name: name, Platforms: []string{"ZnG"}, Scenarios: scenarios, Scales: []float64{0.5}}
}

// gatedRunner answers every cell with detSim, holding cells of the
// gated scenario until gate closes and announcing each on started.
func gatedRunner(gated string, gate <-chan struct{}, started chan<- struct{}) campaign.Runner {
	return runnerFunc(func(k platform.Kind, m workload.Mix, s float64, c config.Config) (platform.Result, error) {
		if m.Name == gated {
			started <- struct{}{}
			<-gate
		}
		return detSim(k, m, s, c)
	})
}

// TestCampaignsLifecycle: Start runs a campaign under its content
// address, Get resolves live ids only, List keeps start order, and a
// spec that does not expand starts nothing and writes nothing.
func TestCampaignsLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	m := fleet.New(fleet.Config{Local: gatedRunner("solo-bfs1", gate, started), Store: st, Workers: 2, Base: config.Default()}).Campaigns()

	first := soloSpec("first", "solo-bfs1", "solo-gaus")
	c1, err := m.Start(first)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := fleet.CampaignID(first, config.Default()); err != nil || c1.ID != id {
		t.Errorf("id = %s, want the content address %s (%v)", c1.ID, id, err)
	}
	if got, ok := m.Get(c1.ID); !ok || got != c1 {
		t.Errorf("Get(%s) = %v, %v; want the started campaign", c1.ID, got, ok)
	}
	never, err := fleet.CampaignID(soloSpec("never-started", "solo-pr"), config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(never); ok {
		t.Error("Get of a never-started id hit")
	}
	<-started
	if c1.Done() || c1.Outcome() != nil {
		t.Error("campaign done before its cells resolved")
	}
	close(gate)
	if out := c1.Wait(); out.Err() != nil {
		t.Fatal(out.Err())
	}
	c2, err := m.Start(soloSpec("second", "solo-pr"))
	if err != nil {
		t.Fatal(err)
	}
	c2.Wait()
	if got := m.List(); len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Errorf("List = %v, want [%s %s]", got, c1.ID, c2.ID)
	}

	// A rejected spec leaves no checkpoint directory behind: the store
	// holds the two started campaigns only.
	for name, bad := range map[string]campaign.Spec{
		"empty":            {},
		"unknown platform": {Platforms: []string{"GTX9000"}, Scenarios: []string{"solo-bfs1"}},
		"bad override":     {Platforms: []string{"ZnG"}, Scenarios: []string{"solo-bfs1"}, Overrides: []campaign.Override{{Config: []byte(`{"RegCache":{"RegNet":"nope"}}`)}}},
		"override range":   {Platforms: []string{"ZnG"}, Scenarios: []string{"solo-bfs1"}, Overrides: []campaign.Override{{Config: []byte(`{"L2STT":{"Sets":1099511627776}}`)}}},
	} {
		if _, err := m.Start(bad); err == nil {
			t.Errorf("%s: unexpandable spec started", name)
		}
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "campaigns")); err != nil || len(ents) != 2 {
		t.Errorf("checkpoint directories after rejected starts: %v (%v), want the 2 started campaigns", ents, err)
	}
	if got := len(m.List()); got != 2 {
		t.Errorf("List holds %d campaigns after rejected starts, want 2", got)
	}
}

// TestCampaignsEvictFinished: past DefaultMaxCampaigns the oldest
// finished campaigns are evicted and their ids read as unknown, while
// a running campaign is never evicted, however old.
func TestCampaignsEvictFinished(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	m := fleet.New(fleet.Config{Local: gatedRunner("solo-gaus", gate, started), Workers: 1, Base: config.Default()}).Campaigns()

	running, err := m.Start(soloSpec("running", "solo-gaus"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	finished := make([]string, fleet.DefaultMaxCampaigns+1)
	for i := range finished {
		c, err := m.Start(soloSpec(fmt.Sprintf("finished-%d", i), "solo-bfs1"))
		if err != nil {
			t.Fatal(err)
		}
		c.Wait()
		finished[i] = c.ID
	}

	// One running plus 65 finished is two past the bound: the two
	// oldest finished campaigns go, the older running one stays.
	if _, ok := m.Get(running.ID); !ok {
		t.Error("running campaign was evicted")
	}
	for i, id := range finished {
		if _, ok := m.Get(id); ok != (i >= 2) {
			t.Errorf("finished campaign %d retained = %v, want %v", i, ok, i >= 2)
		}
	}
	if got := len(m.List()); got != fleet.DefaultMaxCampaigns {
		t.Errorf("retained %d campaigns, want %d", got, fleet.DefaultMaxCampaigns)
	}
	close(gate)
	running.Wait()
}
