package experiments

import (
	"sync"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/workload"
)

// The figure drivers overlap heavily: Fig. 10, Fig. 11 and Fig. 12 all
// re-simulate ZnG-base on the same workloads, the sweeps re-run
// unchanged baseline cells, and `zngfig -fig all` multiplies that
// again. A simulation is a pure function of (kind, mix, scale, cfg) —
// the engine is single-threaded and the traces are seed-deterministic
// — so results are memoized per runner: one Options value (and every
// copy derived from it) shares a runner, and a full figure suite run
// under it performs each unique simulation exactly once.
//
// Options.Runner (a campaign.Runner) is the injection point: the
// drivers only ever ask "give me the result for this cell", so
// anything that answers that — the in-memory Memo below, or the
// persistent store-backed scheduler in internal/simsvc — can stand
// behind the whole experiments package, the CLIs and the zngd daemon
// alike.

// RunnerStats counts how a Runner satisfied its requests. Memo never
// touches disk, so its DiskHits stay zero; the simsvc service fills
// all four.
type RunnerStats struct {
	// Sims is the number of unique simulations actually performed.
	Sims uint64
	// MemoryHits counts requests served from an already-completed
	// in-memory result.
	MemoryHits uint64
	// DiskHits counts requests served from the persistent store.
	DiskHits uint64
	// Coalesced counts requests that attached to an identical
	// simulation already in flight instead of starting their own.
	Coalesced uint64
}

// StatsReporter is implemented by runners that keep RunnerStats;
// zngfig -v uses it to print the dedup ratio without caring which
// runner is injected.
type StatsReporter interface {
	Stats() RunnerStats
}

// The workload participates in the memo key through workload.Mix.ID(),
// its canonical content identity: a Mix carries a component slice and
// so cannot sit in a comparable map key itself, and keying on the ID
// (rather than the display name) lets scenarios that alias the same
// composition — consol-2 and bfs1-gaus, say — share one simulation and
// one result, which platform.RunMix labels with that ID.
//
// config.Config is a flat value type (no slices, maps or pointers), so
// the whole configuration participates in the key by value; any sweep
// that perturbs a threshold gets its own cell.
type runKey struct {
	kind  platform.Kind
	mix   string // workload.Mix.ID()
	scale float64
	cfg   config.Config
}

// runEntry is one memoized cell. done is closed once res/err are
// final, giving the memo single-flight semantics: concurrent requests
// for the same cell block on the first simulation instead of
// duplicating it.
type runEntry struct {
	done chan struct{}
	res  platform.Result
	err  error
}

// Memo is the in-memory single-flight Runner: process-lifetime
// results, no persistence. It is what DefaultOptions injects, so
// library users and tests get dedup within one Options lineage without
// any process-wide mutable state — two independently built Options
// values cannot observe each other's cells.
type Memo struct {
	mu        sync.Mutex
	m         map[runKey]*runEntry // guarded by mu
	sims      uint64               // guarded by mu
	memHits   uint64               // guarded by mu
	coalesced uint64               // guarded by mu
}

// NewMemo returns an empty in-memory runner.
func NewMemo() *Memo {
	return &Memo{m: map[runKey]*runEntry{}}
}

// Run returns the memoized platform.RunMix result for one cell,
// simulating it on first request. Errors are cached too: a failed cell
// (deadlock, event-cap overrun) is deterministic, so retrying it would
// only waste the same wall-clock again.
func (c *Memo) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	key := runKey{kind: kind, mix: mix.ID(), scale: scale, cfg: cfg}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		select {
		case <-e.done:
			c.memHits++
		default:
			c.coalesced++
		}
		c.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &runEntry{done: make(chan struct{})}
	c.m[key] = e
	c.sims++
	c.mu.Unlock()

	e.res, e.err = platform.RunMix(kind, mix, scale, cfg)
	close(e.done)
	return e.res, e.err
}

// Stats reports how requests were satisfied — the dedup ratio zngfig
// prints after a figure suite.
func (c *Memo) Stats() RunnerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return RunnerStats{Sims: c.sims, MemoryHits: c.memHits, Coalesced: c.coalesced}
}
