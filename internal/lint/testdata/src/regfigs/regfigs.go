// Package regfigs exercises the figure half of the registry
// analyzer: each entry's Run names an exported driver, each driver is
// registered exactly once, and ids are unique.
package regfigs

import "zng/internal/lint/testdata/src/regstats"

// Figure is one registry entry.
type Figure struct {
	ID  string
	Run func() *regstats.Table
}

// dynRun is a value, not a driver.
var dynRun = Fig10

// Fig10 is registered exactly once — the clean case.
func Fig10() *regstats.Table { return &regstats.Table{} }

// Fig11 is registered twice.
func Fig11() *regstats.Table { return &regstats.Table{} }

// Orphan never enters the registry.
func Orphan() *regstats.Table { return &regstats.Table{} } // want "has no Registry"

// helperTable is unexported, so it is not a driver.
func helperTable() *regstats.Table { return &regstats.Table{} }

// Registry declares the entries the analyzer cross-checks.
func Registry() []Figure {
	return []Figure{
		{ID: "fig10", Run: Fig10},
		{ID: "fig11", Run: Fig11},
		{ID: "fig11b", Run: Fig11},                                    // want "driver Fig11 is registered 2 times"
		{ID: "fig10", Run: helperTable},                               // want "names unexported helperTable" "figure id \"fig10\" registered 2 times"
		{ID: "fig12", Run: func() *regstats.Table { return Fig10() }}, // want "Run is a closure"
		{ID: "fig13", Run: dynRun},                                    // want "Run is not a driver"
	}
}
