// Package cellkey derives the content address of one simulation
// cell: the hex SHA-256 of a canonical JSON encoding of (schema
// version, platform kind, workload mix ID, trace scale, full
// configuration). A simulation is a pure function of exactly those
// inputs, so the key names its result wherever it lives — the
// persistent store files entries under it, the simsvc scheduler
// coalesces concurrent requests on it, and the campaign subsystem
// uses it to dedupe grid cells across whole campaigns. The derivation
// lives in this leaf package (rather than internal/store, which
// re-exports it) so the declarative layers can address cells without
// dragging in the store's result-codec dependencies.
package cellkey

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"zng/internal/config"
	"zng/internal/platform"
)

// SchemaVersion stamps the key derivation. It participates in every
// cell key, so bumping it — whenever the result encoding or the
// meaning of any keyed input changes — invalidates all existing
// store entries at once instead of letting stale bytes decode into
// wrong results. A change to what the simulator outputs for an
// unchanged key needs a bump too, or a store keeps serving the old
// output while fresh simulations report the new one.
const SchemaVersion = 2

// keyDoc is the canonically-encoded cell identity that gets hashed.
// Struct fields marshal in declaration order and config.Config is a
// flat value type (no maps, no pointers), so the encoding — and
// therefore the key — is deterministic across processes.
type keyDoc struct {
	Schema int           `json:"schema"`
	Kind   string        `json:"kind"`
	Mix    string        `json:"mix"` // workload.Mix.ID(), the content identity
	Scale  float64       `json:"scale"`
	Cfg    config.Config `json:"cfg"`
}

// Key returns the content address of one simulation cell. Mixes
// participate through their ID rather than their display name, so
// aliasing scenarios (consol-2 and bfs1-gaus, say) share one entry.
func Key(kind platform.Kind, mixID string, scale float64, cfg config.Config) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(keyDoc{
		Schema: SchemaVersion,
		Kind:   kind.String(),
		Mix:    mixID,
		Scale:  scale,
		Cfg:    cfg,
	}); err != nil {
		// The only encodable failure here is a non-finite scale (JSON
		// has no NaN/Inf); every entry point validates scale first, so
		// reaching this is a caller bug worth failing loudly on.
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
