package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"zng/internal/campaign"
	"zng/internal/store"
)

// checkpointSchemaVersion stamps the campaign id derivation and the
// spec document; bump it whenever the spec document changes meaning,
// so old checkpoints read as different campaigns instead of resuming
// wrongly. Version 2's overrides are partial config documents.
const checkpointSchemaVersion = 2

// specDoc is the canonical spec document CampaignID hashes and
// WriteSpec persists — the campaign Spec plus the schema stamp, all
// canonical types (strings, numbers, slices and each override's JSON
// document, which json.Marshal writes compact).
type specDoc struct {
	Version int           `json:"v"`
	Spec    campaign.Spec `json:"spec"`
}

// CampaignID derives the content address of a campaign: the hex
// SHA-256 of the canonical spec document. Identical sweeps get
// identical ids across processes and machines, which is what lets a
// fresh coordinator pointed at the same store directory resume a
// campaign it has never seen — and makes starting the same spec twice
// idempotent instead of a duplicate sweep.
func CampaignID(spec campaign.Spec) string {
	b, err := json.Marshal(specDoc{Version: checkpointSchemaVersion, Spec: spec})
	if err != nil {
		// A spec that expands, or that was decoded from JSON, has a
		// JSON form: finite scales and well-formed override documents.
		// Campaigns asks only for such ids, so panic loudly rather than
		// return a colliding id.
		panic(fmt.Sprintf("fleet: encoding campaign spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// isCampaignID reports whether id has CampaignID's form: 64 lowercase
// hex digits, which can never traverse out of the checkpoint root.
func isCampaignID(id string) bool {
	if len(id) != 2*sha256.Size {
		return false
	}
	for _, r := range id {
		if !('0' <= r && r <= '9' || 'a' <= r && r <= 'f') {
			return false
		}
	}
	return true
}

// Checkpointer persists campaign specs under the store directory:
//
//	<store>/campaigns/<campaign-id>/spec.json
//
// written with the store's own atomic temp-file+rename discipline, so
// a crashed coordinator never publishes a torn spec. The spec is a
// campaign's only checkpoint document: its finished cells are the
// store's own content-addressed documents, which the coordinator reads
// before dispatching any cell, so a resume re-runs exactly what the
// store lacks.
type Checkpointer struct {
	root string // <store dir>/campaigns
}

// NewCheckpointer roots a checkpointer in st's directory; a nil store
// returns nil (the no-durability mode — every method on a nil
// Checkpointer is safe and does nothing).
func NewCheckpointer(st *store.Store) *Checkpointer {
	if st == nil {
		return nil
	}
	return &Checkpointer{root: filepath.Join(st.Dir(), "campaigns")}
}

// dir is one campaign's checkpoint directory.
func (c *Checkpointer) dir(id string) string { return filepath.Join(c.root, id) }

// WriteSpec persists a campaign's spec document (idempotent: the
// content-addressed id pins the contents, so rewriting is harmless).
// A nil checkpointer ignores the write.
func (c *Checkpointer) WriteSpec(id string, spec campaign.Spec) error {
	if c == nil {
		return nil
	}
	b, err := json.MarshalIndent(specDoc{Version: checkpointSchemaVersion, Spec: spec}, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encoding spec: %w", err)
	}
	if err := os.MkdirAll(c.dir(id), 0o755); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return store.WriteFile(filepath.Join(c.dir(id), "spec.json"), append(b, '\n'))
}

// LoadSpec reads a checkpointed campaign's spec back. Unknown ids —
// including a nil checkpointer, and any id not of CampaignID's form,
// which is refused before it can name a path — fail with
// os.ErrNotExist wrapped in the message.
func (c *Checkpointer) LoadSpec(id string) (campaign.Spec, error) {
	if c == nil {
		return campaign.Spec{}, fmt.Errorf("fleet: no checkpoint store: campaign %q: %w", id, os.ErrNotExist)
	}
	if !isCampaignID(id) {
		return campaign.Spec{}, fmt.Errorf("fleet: %q is not a campaign id: %w", id, os.ErrNotExist)
	}
	b, err := os.ReadFile(filepath.Join(c.dir(id), "spec.json"))
	if err != nil {
		return campaign.Spec{}, fmt.Errorf("fleet: loading campaign %q: %w", id, err)
	}
	// An unknown key, such as an override knob of an older schema, is
	// an error rather than a field dropped on the way to a resume.
	var doc specDoc
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return campaign.Spec{}, fmt.Errorf("fleet: decoding campaign %q spec: %w", id, err)
	}
	if doc.Version != checkpointSchemaVersion {
		return campaign.Spec{}, fmt.Errorf("fleet: campaign %q spec has schema v%d, want v%d",
			id, doc.Version, checkpointSchemaVersion)
	}
	return doc.Spec, nil
}
