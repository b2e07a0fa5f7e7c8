// Package stats collects the measurements the ZnG evaluation reports:
// counters and latency breakdowns per hardware component, plus the
// plain-text table rendering the experiment drivers use to print the
// same rows and series the paper's figures show.
package stats

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Ratio returns c/other, or 0 if other is zero.
func (c *Counter) Ratio(other *Counter) float64 {
	if other.n == 0 {
		return 0
	}
	return float64(c.n) / float64(other.n)
}

// Breakdown accumulates time (or any additive quantity) attributed to
// named components — the structure behind the paper's Fig. 4d latency
// breakdown.
type Breakdown struct {
	order []string
	vals  map[string]float64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{vals: make(map[string]float64)}
}

// Add attributes v to component name, creating it on first use.
func (b *Breakdown) Add(name string, v float64) {
	if _, ok := b.vals[name]; !ok {
		b.order = append(b.order, name)
	}
	b.vals[name] += v
}

// Get reports the accumulated value for name.
func (b *Breakdown) Get(name string) float64 { return b.vals[name] }

// Total reports the sum over all components, accumulated in first-use
// order: float addition does not associate, so summing in map
// iteration order would let the random order perturb the result's low
// bits from run to run.
func (b *Breakdown) Total() float64 {
	t := 0.0
	for _, n := range b.order {
		t += b.vals[n]
	}
	return t
}

// Components returns component names in first-use order.
func (b *Breakdown) Components() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}
