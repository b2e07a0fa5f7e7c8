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
	"strconv"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/wire"
)

// SchemaVersion stamps the key derivation. It participates in every
// cell key, so bumping it — whenever the result encoding or the
// meaning of any keyed input changes — invalidates all existing
// store entries at once instead of letting stale bytes decode into
// wrong results. A change to what the simulator outputs for an
// unchanged key needs a bump too, or a store keeps serving the old
// output while fresh simulations report the new one.
const SchemaVersion = 7

// Key returns the content address of one simulation cell. Mixes
// participate through their ID rather than their display name, so
// aliasing scenarios (consol-2 and bfs1-gaus, say) share one entry.
//
// The hashed bytes are the canonical cell identity
//
//	{"schema":7,"kind":"ZnG","mix":"bfs1+gaus","scale":2,"cfg":{"GPU":{...},...}}
//
// and a newline: exactly what json.Encoder wrote for a struct of those
// fields, since the keys of every existing store are hashes of those
// bytes. Strings and floats are written as encoding/json writes them
// and the configuration as json.Marshal writes it (config.AppendJSON);
// the configuration is a flat value type, so the bytes, and the key,
// are the same in every process.
func Key(kind platform.Kind, mixID string, scale float64, cfg config.Config) string {
	var buf [4096]byte // the Table I configuration takes under 2 KB
	b := append(buf[:0], `{"schema":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"kind":`...)
	b = wire.AppendString(b, kind.String())
	b = append(b, `,"mix":`...)
	b = wire.AppendString(b, mixID)
	b = append(b, `,"scale":`...)
	// A non-finite scale or configuration value has no JSON form; every
	// entry point validates scale first, so reaching either panic is a
	// caller bug worth failing loudly on.
	b = wire.AppendFloat(b, scale)
	b = append(b, `,"cfg":`...)
	b, err := cfg.AppendJSON(b)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(append(b, "}\n"...))
	return hex.EncodeToString(sum[:])
}
