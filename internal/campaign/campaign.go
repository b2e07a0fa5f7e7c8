// Package campaign turns the evaluation matrix into a first-class
// object: a declarative Spec names a grid — platforms × workload
// scenarios × trace scales × configuration overrides — and expands
// deterministically into content-addressed simulation cells, the same
// (kind, mix ID, scale, config) identity the persistent store
// (internal/store) hashes, so identical cells across campaigns dedupe
// through whatever runner executes them. The paper's evaluation is
// exactly such a matrix (seven platforms × twelve co-run pairs plus
// ablation sweeps, Section V), and every internal/experiments figure
// driver declares its part of it as a Spec.
//
// An Executor drives the cells through any runner — the simsvc
// scheduler, memory-only or store-backed, or the internal/fleet
// coordinator fanning out over zngd workers — with
// bounded concurrency, live progress counters and partial-failure
// reporting, and folds the results into a stats.Table matrix that
// internal/report renders like any figure.
// A Campaign binds a started Run to an id; internal/fleet owns the
// asynchronous lifecycle behind the zngd HTTP API (start, poll
// progress by campaign id, resume, collect the outcome).
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/wire"
	"zng/internal/workload"
)

// Runner answers one simulation cell. It is the one runner contract:
// the simsvc service (memory-only or store-backed), remote clients and
// dispatchers and the fleet coordinator all implement it. It lives
// here, not in internal/experiments, because the figure drivers build
// matrices through a campaign and so import this package.
type Runner interface {
	Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error)
}

// Override is one configuration perturbation of a campaign axis: a
// partial config.Config document, decoded over the base configuration
// exactly as zngd decodes POST /v1/run's "config", so a field it does
// not name inherits the base. It is what a zngsweep spec file or a
// POST /v1/campaigns body carries, e.g.
//
//	{"name": "ch8", "config": {"Flash": {"Channels": 8}}}
//
// The paper's sensitivity studies are such documents: L2 capacity
// (Sec. IV-B, {"L2STT":{"Sets":N}}), the access monitor's waste
// thresholds (Sec. V-D, {"Prefetch":{"HighWaste":h,"LowWaste":l}})
// and the register interconnect (Sec. IV-C, {"RegCache":{"Net":n}}).
type Override struct {
	// Name labels the override in tables and progress output; the
	// compact document when empty.
	Name string `json:"name,omitempty"`
	// Config is the partial configuration document.
	Config json.RawMessage `json:"config,omitempty"`
}

// IsZero reports whether ov is the zero override: no name and no
// document, the base configuration cell.
func (ov Override) IsZero() bool { return ov.Name == "" && len(ov.Config) == 0 }

// Label names the override for table rows and progress lines: the
// explicit Name when set, "base" for the zero override, and the
// compact document otherwise.
func (ov Override) Label() string {
	if ov.Name != "" {
		return ov.Name
	}
	if len(ov.Config) == 0 {
		return "base"
	}
	var b bytes.Buffer
	if err := json.Compact(&b, ov.Config); err != nil {
		return string(ov.Config)
	}
	return b.String()
}

// Apply returns the base configuration with the document decoded over
// it, or an error naming the override when the document does not
// decode (an unknown field, a value of the wrong type) or the result
// is not one the model runs (config.Config.Validate).
func (ov Override) Apply(base config.Config) (config.Config, error) {
	cfg := base
	var err error
	if len(ov.Config) > 0 {
		var d wire.Decoder
		d.Reset(ov.Config)
		cfg.DecodeJSON(&d)
		d.End()
		err = d.Err()
	}
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return cfg, fmt.Errorf("campaign: override %s: %w", ov.Label(), err)
	}
	return cfg, nil
}

// MaxCells bounds the grid one Spec may expand to: 50 times the full
// registry (every platform × every registered scenario) at one scale
// and override. A spec is caller input (a POST /v1/campaigns body, a
// zngsweep -spec file), and a few kilobytes of axis entries can name
// a cross product of millions of cells; Expand refuses such a spec
// before allocating any of it.
const MaxCells = 16384

// Spec declares one campaign: the full cross product of its four
// axes. Platforms and Scenarios are required; Scales defaults to
// {1.0} (the Table II trace budgets) and Overrides to the single base
// configuration. Scenario entries name registered scenarios
// (workload.Scenarios) or ad-hoc compositions — zngsim's -apps
// syntax ("bfs1,gaus*1.5") or the comma-free mix-ID form
// ("bfs1+gaus*1.5", safe inside comma-separated flag lists).
type Spec struct {
	Name      string     `json:"name,omitempty"`
	Platforms []string   `json:"platforms"`
	Scenarios []string   `json:"scenarios"`
	Scales    []float64  `json:"scales,omitempty"`
	Overrides []Override `json:"overrides,omitempty"`
}

// Cell is one expanded grid point, content-addressed by Key — the
// exact cellkey.Key the persistent store and the simsvc scheduler
// hash, so a cell this campaign shares with any past campaign (or any
// figure driver) is the same entry everywhere.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index    int
	Kind     platform.Kind
	Mix      workload.Mix
	Scale    float64
	Override Override
	// Cfg is the base configuration with Override applied.
	Cfg config.Config
	// Key is the cell's content address (cellkey.Key).
	Key string
}

// String names the cell in errors and trace spans: "<kind> on <mix>
// at scale <scale>", then the override's label in brackets unless the
// override is the zero one, e.g.
// "ZnG on betw-back at scale 0.12 [hi0.8+lo0.2]".
func (c Cell) String() string {
	s := fmt.Sprintf("%s on %s at scale %s", c.Kind, c.Mix.Name, strconv.FormatFloat(c.Scale, 'g', -1, 64))
	if !c.Override.IsZero() {
		s += " [" + c.Override.Label() + "]"
	}
	return s
}

// resolveScenario accepts a registered scenario name or an ad-hoc
// composition in either zngsim's -apps syntax ("bfs1,gaus*1.5") or
// the mix-ID form with '+' separators ("bfs1+gaus*1.5"). The '+'
// form exists so comma-separated scenario lists (zngsweep
// -scenarios) can carry multi-app compositions unambiguously.
func resolveScenario(name string) (workload.Mix, error) {
	m, err := workload.MixByName(name)
	if err == nil {
		return m, nil
	}
	am, aerr := workload.ParseApps(strings.ReplaceAll(name, "+", ","))
	if aerr == nil {
		return am, nil
	}
	// A separator marks the entry as clearly ad-hoc: report the
	// composition parser's diagnostic (a weight typo, an unknown app)
	// rather than a misleading "unknown scenario".
	if strings.ContainsAny(name, "+,") {
		return workload.Mix{}, aerr
	}
	return workload.Mix{}, err
}

// Expand validates the spec against the base configuration and
// returns the grid in deterministic order: overrides outermost, then
// scales, then scenarios, then platforms — so a result matrix groups
// naturally into one (override, scale) block of scenario rows ×
// platform columns. Cells that alias the same content (two scenario
// names with one composition) keep separate grid points with their
// own labels; any Runner dedupes them by Key. A grid of more than
// MaxCells cells is rejected before anything is resolved.
func (s Spec) Expand(base config.Config) ([]Cell, error) {
	if len(s.Platforms) == 0 {
		return nil, fmt.Errorf("campaign: spec %q lists no platforms", s.Name)
	}
	if len(s.Scenarios) == 0 {
		return nil, fmt.Errorf("campaign: spec %q lists no scenarios", s.Name)
	}
	axes := []int{len(s.Platforms), len(s.Scenarios), max(len(s.Scales), 1), max(len(s.Overrides), 1)}
	n := 1
	for _, l := range axes {
		// n never exceeds MaxCells, so the product is bounded without
		// computing it: n*l > MaxCells exactly when n > MaxCells/l.
		if n > MaxCells/l {
			return nil, fmt.Errorf("campaign: spec %q has %d platforms × %d scenarios × %d scales × %d overrides, over the %d-cell limit",
				s.Name, axes[0], axes[1], axes[2], axes[3], MaxCells)
		}
		n *= l
	}
	kinds := make([]platform.Kind, len(s.Platforms))
	for i, name := range s.Platforms {
		k, err := platform.KindByName(name)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
	}
	mixes := make([]workload.Mix, len(s.Scenarios))
	for i, name := range s.Scenarios {
		m, err := resolveScenario(name)
		if err != nil {
			return nil, err
		}
		mixes[i] = m
	}
	scales := s.Scales
	if len(scales) == 0 {
		scales = []float64{1}
	}
	for _, sc := range scales {
		for _, m := range mixes {
			if err := m.CheckScale(sc); err != nil {
				return nil, fmt.Errorf("campaign: scenario %q: %w", m.Name, err)
			}
		}
	}
	overrides := s.Overrides
	if len(overrides) == 0 {
		overrides = []Override{{}}
	}

	cells := make([]Cell, 0, n)
	for _, ov := range overrides {
		cfg, err := ov.Apply(base)
		if err != nil {
			return nil, err
		}
		for _, sc := range scales {
			for _, m := range mixes {
				for _, k := range kinds {
					cells = append(cells, Cell{
						Index:    len(cells),
						Kind:     k,
						Mix:      m,
						Scale:    sc,
						Override: ov,
						Cfg:      cfg,
						Key:      cellkey.Key(k, m.ID(), sc, cfg),
					})
				}
			}
		}
	}
	return cells, nil
}

// UniqueCells counts the distinct content addresses in a cell list —
// the number of simulations a deduplicating runner actually pays for.
func UniqueCells(cells []Cell) int {
	seen := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		seen[c.Key] = struct{}{}
	}
	return len(seen)
}
