// Package store is the persistent, content-addressed simulation
// result store behind the simsvc scheduler and the CLIs' -cache flag.
//
// A simulation is a pure function of (platform kind, workload mix,
// trace scale, configuration) — the property the in-memory memo in
// internal/experiments already exploits — so its result can be
// addressed by a stable hash of exactly those inputs and survive the
// process: a figure suite, a CI run and a zngd daemon restart can all
// serve each other's cells. Entries are one JSON document per cell
// (the internal/report result emitter), written atomically via a
// temp-file rename so a crashed writer can never publish a torn
// entry; readers treat any undecodable entry as a miss and fall back
// to re-simulation, so corruption degrades to wasted work, never to a
// wrong answer.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"zng/internal/platform"
	"zng/internal/report"
)

// Store is one result cache directory. Methods are safe for
// concurrent use by multiple goroutines and — thanks to the atomic
// rename on write — by multiple processes sharing the directory.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if
// needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path reports where the entry for key lives: <dir>/<key>.json.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get loads the entry for key. The boolean is false on any miss —
// absent, unreadable, truncated or otherwise undecodable entry — so
// the caller's only move is to re-simulate (and Put the fresh result,
// healing the entry).
func (s *Store) Get(key string) (platform.Result, bool) {
	b, err := os.ReadFile(s.Path(key))
	if err != nil {
		return platform.Result{}, false
	}
	r, err := report.DecodeResult(b)
	if err != nil {
		return platform.Result{}, false
	}
	return r, true
}

// Put writes the entry for key atomically (WriteFile), so concurrent
// readers (and other processes) only ever observe a complete entry.
// Re-putting a key overwrites it.
func (s *Store) Put(key string, r platform.Result) error {
	return WriteFile(s.Path(key), report.EncodeResult(r))
}

// WriteFile publishes doc at path atomically: the document lands in a
// temp file in path's directory, which must exist, and is renamed
// over path, so a crashed writer never publishes a torn document.
// The store and the campaign checkpoints under it both write this way.
func WriteFile(path string, doc []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(doc)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return nil
}

// Entries counts the complete entries currently on disk (in-flight
// temp files are excluded) — surfaced by zngd's /metrics.
func (s *Store) Entries() (int, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}
