package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Component is one application instance inside a Mix: a spec name plus
// a weight multiplying the mix-level trace scale for that instance
// (weight 1 = the spec's nominal budget).
type Component struct {
	App    string
	Weight float64
}

// Mix is one multi-application workload scenario: a named list of
// co-resident applications, each running in its own virtual address
// space on its own SM partition. The twelve 2-app co-run pairs of the
// paper's Section V-A are mixes of degree 2; the scenario registry
// (Scenarios) adds solo runs, higher-degree consolidation mixes,
// stress mixes and an OLTP co-run on top.
type Mix struct {
	Name       string
	Components []Component
}

// NewMix builds a mix of the named applications, each at weight 1.
func NewMix(name string, apps ...string) Mix {
	c := make([]Component, len(apps))
	for i, a := range apps {
		c[i] = Component{App: a, Weight: 1}
	}
	return Mix{Name: name, Components: c}
}

// ID returns the canonical content identity of the mix: the ordered
// component list, independent of the display name. Two scenarios with
// the same components and weights simulate identically, and the
// experiments memo keys on exactly this string — unlike the Mix struct
// itself, it is comparable no matter how many components a mix has.
//
// A weight is written in strconv's shortest 'g' form with any '+'
// dropped from its exponent (1e+06 becomes 1e06), so '+' only ever
// separates components: campaign specs and remote peers turn an ID
// back into a mix by reading each '+' as a ','.
func (m Mix) ID() string {
	var b strings.Builder
	for i, c := range m.Components {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(c.App)
		if c.Weight != 1 {
			b.WriteByte('*')
			b.WriteString(strings.Replace(strconv.FormatFloat(c.Weight, 'g', -1, 64), "+", "", 1))
		}
	}
	return b.String()
}

// Degree reports the number of co-resident applications.
func (m Mix) Degree() int { return len(m.Components) }

// Apps instantiates every component at the given trace scale.
// Component i receives address-space index i, so the instantiation is
// order-sensitive exactly like ID.
func (m Mix) Apps(scale float64) ([]*App, error) {
	if len(m.Components) == 0 {
		return nil, fmt.Errorf("workload: mix %q has no components", m.Name)
	}
	apps := make([]*App, len(m.Components))
	for i, c := range m.Components {
		spec, err := c.spec(scale)
		if err != nil {
			return nil, fmt.Errorf("mix %q: %w", m.Name, err)
		}
		apps[i] = NewApp(spec, scale*c.Weight, i)
	}
	return apps, nil
}

// CheckScale reports whether every component of m can be instantiated
// at the trace scale, naming the first that cannot: the scale must be
// positive and finite (a NaN or an infinity would reach the cell-key
// hasher, which cannot encode it), the component's application must be
// registered, and scale × weight must be positive with its per-warp and
// total memory-instruction counts within an int. NewApp's
// 4-instruction floor serves any positive product, however small; a
// larger product than the counts can hold would wrap and silently run
// a different trace. Entry points call it before a cell is keyed, and
// it is their one check of a scale.
func (m Mix) CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 0) {
		return fmt.Errorf("workload: scale must be positive and finite, got %v", scale)
	}
	for _, c := range m.Components {
		if _, err := c.spec(scale); err != nil {
			return err
		}
	}
	return nil
}

// spec resolves the component's application and checks that NewApp
// can instantiate it at the mix-level trace scale.
func (c Component) spec(scale float64) (Spec, error) {
	spec, err := SpecByName(c.App)
	if err != nil {
		return Spec{}, err
	}
	if !(c.Weight > 0) || math.IsInf(c.Weight, 1) {
		return Spec{}, fmt.Errorf("workload: component %s weight %v must be positive and finite", c.App, c.Weight)
	}
	// NewApp's counts: per warp, then over every (kernel, warp). On
	// 64-bit hosts float64(math.MaxInt) is 2^63, the first value int()
	// cannot take.
	s := scale * c.Weight
	warps := spec.Kernels * spec.WarpsPerKernel
	perWarp := float64(spec.MemInstBudget) * s / float64(warps)
	if !(s > 0) || !(perWarp < math.MaxInt) || int(perWarp) > math.MaxInt/warps {
		return Spec{}, fmt.Errorf("workload: component %s at scale %v × weight %v: the trace's instruction count must be positive and fit in an int", c.App, scale, c.Weight)
	}
	return spec, nil
}

// PaperPairs returns the twelve co-run workloads of Figures 5, 10 and
// 11 as degree-2 mixes, in the paper's x-axis order: a read-intensive
// graph application co-run with a write-intensive scientific kernel
// (Section V-A).
func PaperPairs() []Mix {
	return []Mix{
		NewMix("betw-back", "betw", "back"),
		NewMix("bfs1-gaus", "bfs1", "gaus"),
		NewMix("gc1-FDT", "gc1", "FDT"),
		NewMix("gc2-FDT", "gc2", "FDT"),
		NewMix("sssp3-gram", "sssp3", "gram"),
		NewMix("bfs2-gaus", "bfs2", "gaus"),
		NewMix("bfs3-FDT", "bfs3", "FDT"),
		NewMix("bfs4-back", "bfs4", "back"),
		NewMix("bfs5-back", "bfs5", "back"),
		NewMix("bfs6-gaus", "bfs6", "gaus"),
		NewMix("deg-gram", "deg", "gram"),
		NewMix("pr-gaus", "pr", "gaus"),
	}
}

// ConsolidationDegrees is the co-run-degree range the consolidation
// scenarios (and the abl-consolidation figure) sweep.
const ConsolidationDegrees = 4

// consolApps are the applications the consolidation sweep stacks, one
// more per degree: a read-heavy graph app first, then alternating
// write- and read-intensive additions, so each added tenant changes
// the pressure mix rather than just duplicating it.
var consolApps = []string{"bfs1", "gaus", "pr", "back"}

// ConsolidationMix returns the consolidation scenario of the given
// co-run degree (1 to ConsolidationDegrees).
func ConsolidationMix(degree int) (Mix, error) {
	if degree < 1 || degree > ConsolidationDegrees {
		return Mix{}, fmt.Errorf("workload: consolidation degree %d out of range [1, %d]", degree, ConsolidationDegrees)
	}
	return NewMix(fmt.Sprintf("consol-%d", degree), consolApps[:degree]...), nil
}

// Scenarios returns the full scenario registry, the vocabulary behind
// zngsim -mix and zngfig -mixes: the twelve paper pairs, a solo run
// per application, the consolidation sweep, read-only/write-only
// stress mixes and the OLTP co-run. Names are unique; content
// may coalesce (e.g. consol-2 simulates identically to bfs1-gaus, and
// the memo's ID keying exploits that).
func Scenarios() []Mix {
	out := PaperPairs()
	for _, s := range AllSpecs() {
		out = append(out, NewMix("solo-"+s.Name, s.Name))
	}
	for d := 1; d <= ConsolidationDegrees; d++ {
		m, err := ConsolidationMix(d)
		if err != nil {
			panic(err) // unreachable: d is in range by construction
		}
		out = append(out, m)
	}
	out = append(out,
		NewMix("read-stress", "rdstress", "rdstress"),
		NewMix("write-stress", "wrstress", "wrstress"),
		NewMix("oltp-bfs1", "oltp", "bfs1"),
	)
	return out
}

// mixIndex builds the scenario-name lookup exactly once, panicking on
// a duplicate name so a registry collision cannot shadow a scenario.
var mixIndex = sync.OnceValue(func() map[string]Mix {
	m := make(map[string]Mix)
	for _, s := range Scenarios() {
		if _, dup := m[s.Name]; dup {
			panic(fmt.Sprintf("workload: duplicate scenario name %q", s.Name))
		}
		m[s.Name] = s
	}
	return m
})

// MixByName returns the registered scenario with the given name.
func MixByName(name string) (Mix, error) {
	m, ok := mixIndex()[name]
	if !ok {
		return Mix{}, fmt.Errorf("workload: unknown scenario %q (the registry is workload.Scenarios; zngsim -list prints it)", name)
	}
	return m, nil
}

// ParseApps builds an ad-hoc mix from a comma-separated application
// list, e.g. "bfs1,gaus,pr". A component may carry an explicit weight
// as "app*1.5". The mix's name is its canonical ID.
func ParseApps(list string) (Mix, error) {
	var comps []Component
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c := Component{App: part, Weight: 1}
		if i := strings.IndexByte(part, '*'); i >= 0 {
			w, err := strconv.ParseFloat(strings.TrimSpace(part[i+1:]), 64)
			if err != nil {
				return Mix{}, fmt.Errorf("workload: bad component weight %q: %w", part, err)
			}
			c.App, c.Weight = strings.TrimSpace(part[:i]), w
		}
		if _, err := SpecByName(c.App); err != nil {
			return Mix{}, err
		}
		// ParseFloat reads "inf" and "infinity" too.
		if !(c.Weight > 0) || math.IsInf(c.Weight, 1) {
			return Mix{}, fmt.Errorf("workload: component %s weight %v must be positive and finite", c.App, c.Weight)
		}
		comps = append(comps, c)
	}
	if len(comps) == 0 {
		return Mix{}, fmt.Errorf("workload: empty application list %q", list)
	}
	m := Mix{Components: comps}
	m.Name = m.ID()
	return m, nil
}
