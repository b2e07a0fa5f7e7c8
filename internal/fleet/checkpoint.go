package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/store"
	"zng/internal/workload"
)

// checkpointSchemaVersion stamps the campaign id derivation and the
// checkpoint documents; bump it whenever the spec document or the
// journal entry shape changes meaning, so old checkpoints read as
// different campaigns instead of resuming wrongly.
const checkpointSchemaVersion = 1

// specDoc is the canonical spec document CampaignID hashes and
// WriteSpec persists — the campaign Spec plus the schema stamp, all
// canonical types (strings, numbers, bools, slices, *float64).
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
		// Spec is a closed struct of canonical types; Marshal cannot
		// fail on it. Panic loudly rather than return a colliding id.
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

// JournalEntry records one resolved cell of a checkpointed campaign:
// the cell's content address plus, for deterministic failures, the
// error text to replay on resume. Successful cells carry no result
// here — the result lives in the store under the same key, written
// before the journal entry, so a journal hit is always a store hit
// (or heals by re-running).
type JournalEntry struct {
	Key string `json:"key"`
	// Error is the deterministic simulation failure's text; empty for
	// successful cells.
	Error string `json:"error,omitempty"`
}

// encodeJournalEntry renders the canonical journal document — the
// checkpoint analogue of report.EncodeResult, and a canonicalkey lint
// sink: only canonical types may flow into checkpoint files.
func encodeJournalEntry(e JournalEntry) []byte {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("fleet: encoding journal entry: %v", err))
	}
	return append(b, '\n')
}

// Checkpointer persists campaign state under the store directory:
//
//	<store>/campaigns/<campaign-id>/spec.json
//	<store>/campaigns/<campaign-id>/cells/<cell-key>.json
//
// one file per document, written with the store's own atomic
// temp-file+rename discipline, so a crashed coordinator never
// publishes a torn checkpoint and concurrent processes sharing the
// directory only ever observe complete entries. Undecodable files
// read as absent — resumption degrades to re-running cells, never to
// wrong results.
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
	var doc specDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return campaign.Spec{}, fmt.Errorf("fleet: decoding campaign %q spec: %w", id, err)
	}
	if doc.Version != checkpointSchemaVersion {
		return campaign.Spec{}, fmt.Errorf("fleet: campaign %q spec has schema v%d, want v%d",
			id, doc.Version, checkpointSchemaVersion)
	}
	return doc.Spec, nil
}

// JournalCell appends one resolved cell to a campaign's journal (one
// file per cell, so concurrent cell completions never contend on a
// shared file). A nil checkpointer ignores the write.
func (c *Checkpointer) JournalCell(id string, e JournalEntry) error {
	if c == nil {
		return nil
	}
	if e.Key == "" || strings.ContainsAny(e.Key, "/.") {
		return fmt.Errorf("fleet: refusing journal entry with malformed key %q", e.Key)
	}
	dir := filepath.Join(c.dir(id), "cells")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return store.WriteFile(filepath.Join(dir, e.Key+".json"), encodeJournalEntry(e))
}

// LoadJournal reads a campaign's journal back as a key-indexed map.
// A campaign with no checkpoint (or a nil checkpointer) loads empty;
// undecodable entries are skipped — their cells simply re-run.
func (c *Checkpointer) LoadJournal(id string) (map[string]JournalEntry, error) {
	out := map[string]JournalEntry{}
	if c == nil {
		return out, nil
	}
	dir := filepath.Join(c.dir(id), "cells")
	names, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: reading journal for %q: %w", id, err)
	}
	for _, f := range names {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(b, &e); err != nil || e.Key == "" {
			continue
		}
		if e.Key != strings.TrimSuffix(f.Name(), ".json") {
			// A journal file renamed (or cross-copied) out from under its
			// key would resume the wrong cell; treat it as absent.
			continue
		}
		out[e.Key] = e
	}
	return out, nil
}

// durableRunner wraps the coordinator's Runner with the campaign's
// journal: journaled-done cells serve from the store (or replay their
// deterministic failure) without dispatching, fresh cells run through
// the fleet and are checkpointed — store write first, then journal,
// so a journal hit is always backed by a stored result and a crash
// between the two only costs a re-run on resume.
type durableRunner struct {
	inner campaign.Runner
	st    *store.Store
	ck    *Checkpointer
	id    string
	// tr records journal replays and checkpoint writes as spans of
	// traced cells; nil runs untraced.
	tr *obs.Tracer

	mu sync.Mutex
	// journal mirrors the on-disk journal for this campaign (seeded
	// from LoadJournal on start, grown as cells resolve). guarded by mu.
	journal map[string]JournalEntry
	// replayed counts cells served from the journal without running —
	// the resume-efficiency figure the tests assert on. guarded by mu.
	replayed uint64
}

func (d *durableRunner) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return d.run(obs.SpanContext{}, kind, mix, scale, cfg)
}

// RunTraced is Run under the caller's span context: journal replays
// record a zero-cost "journal.replay" span, fresh cells thread the
// context through the fleet (the coordinator implements
// campaign.TracedRunner), and the checkpoint write lands as a
// "journal.write" span. It implements campaign.TracedRunner.
func (d *durableRunner) RunTraced(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return d.run(sc, kind, mix, scale, cfg)
}

func (d *durableRunner) run(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	key := store.CellKey(kind, mix.ID(), scale, cfg)
	d.mu.Lock()
	e, done := d.journal[key]
	d.mu.Unlock()
	if done {
		if e.Error != "" {
			d.noteReplay(sc, key)
			return platform.Result{}, errors.New(e.Error)
		}
		if d.st != nil {
			if r, ok := d.st.Get(key); ok {
				// The stored document may carry the label of whoever first
				// computed the cell (an aliasing scenario); relabel per
				// request, same as the serving layer does.
				if mix.Name != "" {
					r.Workload = mix.Name
				}
				d.noteReplay(sc, key)
				return r, nil
			}
		}
		// Journaled but not in the store (a pruned store, or a crash in
		// the narrow window the discipline is designed around never
		// leaves us in): heal by re-running the cell.
	}
	var res platform.Result
	var err error
	ti, ok := d.inner.(campaign.TracedRunner)
	if sc.Valid() && ok {
		res, err = ti.RunTraced(sc, kind, mix, scale, cfg)
	} else {
		res, err = d.inner.Run(kind, mix, scale, cfg)
	}
	if err != nil {
		var pe *remote.PeerError
		if errors.Is(err, remote.ErrNoPeers) || errors.As(err, &pe) {
			// A transport-level fault is nobody's deterministic result;
			// never journal it (the executor's retry — or a resume — gets
			// to run the cell for real).
			return res, err
		}
	}
	d.checkpoint(sc, key, res, err)
	return res, err
}

// checkpoint records one resolved cell: successful results land in
// the store first, then the journal; deterministic failures journal
// their text. A failed store write skips the journal entirely so a
// resume re-simulates rather than trusting an unbacked entry. Traced
// cells record the store+journal write as one "journal.write" span.
func (d *durableRunner) checkpoint(sc obs.SpanContext, key string, res platform.Result, err error) {
	span := d.tr.StartSpan(sc, "journal.write", key)
	e := JournalEntry{Key: key}
	if err != nil {
		e.Error = err.Error()
	} else if d.st != nil {
		if perr := d.st.Put(key, res); perr != nil {
			span.EndErr(perr)
			return
		}
	}
	if jerr := d.ck.JournalCell(d.id, e); jerr != nil {
		// The run still has the result in memory; losing the journal
		// entry only costs a re-run on resume.
		span.EndErr(jerr)
		return
	}
	span.End()
	d.mu.Lock()
	d.journal[key] = e
	d.mu.Unlock()
}

func (d *durableRunner) noteReplay(sc obs.SpanContext, key string) {
	d.tr.Observe(sc, "journal.replay", key, time.Now(), 0, nil)
	d.mu.Lock()
	d.replayed++
	d.mu.Unlock()
}

// Replayed reports how many cells this campaign served from its
// journal without running them.
func (d *durableRunner) Replayed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replayed
}
