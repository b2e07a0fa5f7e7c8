package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/workload"
)

// sample builds a representative result covering every field class the
// codec carries: scalars, the plane-write slice and the Extra map.
func sample() platform.Result {
	return platform.Result{
		Kind:           platform.ZnG,
		Workload:       "betw-back",
		IPC:            3.14159,
		Cycles:         123456789,
		Insts:          987654321,
		FlashReadGBps:  42.5,
		FlashWriteGBps: 7.25,
		PlaneWrites:    []uint64{0, 3, 0, 17, 2},
		L2HitRate:      0.625,
		TLBHitRate:     0.875,
		Extra:          map[string]float64{"reg_migrations": 12, "prefetch_kb": 512},
	}
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t)
	key := cellkey.Key(platform.ZnG, "betw+back", 2.0, config.Default())
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	want := sample()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if got.Kind != want.Kind || got.Workload != want.Workload || got.IPC != want.IPC ||
		got.Cycles != want.Cycles || got.Insts != want.Insts ||
		got.L2HitRate != want.L2HitRate || got.TLBHitRate != want.TLBHitRate {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.PlaneWrites) != len(want.PlaneWrites) || got.PlaneWrites[3] != 17 {
		t.Errorf("plane writes lost: %v", got.PlaneWrites)
	}
	if got.Extra["reg_migrations"] != 12 || got.Extra["prefetch_kb"] != 512 {
		t.Errorf("extra map lost: %v", got.Extra)
	}
}

// TestCorruptEntryRecovery pins the degraded mode: truncated or
// garbage entries read as misses, and a re-Put heals them.
func TestCorruptEntryRecovery(t *testing.T) {
	s := open(t)
	key := cellkey.Key(platform.GDDR5, "bfs1", 1.0, config.Default())
	if err := s.Put(key, sample()); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	for name, bytes := range map[string][]byte{
		"truncated":     full[:len(full)/2],
		"garbage":       []byte("not json at all"),
		"empty":         {},
		"wrong shape":   []byte(`{"kind":"NoSuchPlatform","ipc":1}`),
		"non-object":    []byte(`[1,2,3]`),
		"numeric kind?": []byte(`{"kind":42}`),
	} {
		if err := os.WriteFile(s.Path(key), bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s entry decoded as a hit; want miss", name)
		}
	}
	// Falling back to re-simulation means a fresh Put, which must heal
	// the entry in place.
	if err := s.Put(key, sample()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Error("healed entry still missing")
	}
}

// TestPutLeavesNoTempFiles: the atomic write protocol must not litter
// the directory (leftover temp files would distort Entries and grow
// without bound).
func TestPutLeavesNoTempFiles(t *testing.T) {
	s := open(t)
	for i := 0; i < 4; i++ {
		if err := s.Put(cellkey.Key(platform.ZnG, "bfs1", float64(i+1), config.Default()), sample()); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			t.Errorf("unexpected file %q after Put", e.Name())
		}
	}
	if n, err := s.Entries(); err != nil || n != 4 {
		t.Errorf("Entries() = %d, %v; want 4, nil", n, err)
	}
}

// TestCellKeyDiscriminates: every keyed input must perturb the key,
// and the same inputs must always produce the same key — the property
// that lets separate processes share a cache directory.
func TestCellKeyDiscriminates(t *testing.T) {
	cfg := config.Default()
	base := cellkey.Key(platform.ZnG, "betw+back", 2.0, cfg)
	if again := cellkey.Key(platform.ZnG, "betw+back", 2.0, cfg); again != base {
		t.Errorf("key not stable: %s vs %s", base, again)
	}
	cfg2 := cfg
	cfg2.Prefetch.HighWaste = 0.9
	variants := map[string]string{
		"kind":  cellkey.Key(platform.HybridGPU, "betw+back", 2.0, cfg),
		"mix":   cellkey.Key(platform.ZnG, "bfs1+gaus", 2.0, cfg),
		"scale": cellkey.Key(platform.ZnG, "betw+back", 2.5, cfg),
		"cfg":   cellkey.Key(platform.ZnG, "betw+back", 2.0, cfg2),
	}
	seen := map[string]string{base: "base"}
	for what, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("varying %s collided with %s", what, prev)
		}
		seen[key] = what
	}
	if len(base) != 64 {
		t.Errorf("key %q is not a hex SHA-256", base)
	}
}

// TestAliasedMixesShareKeys: keys address content (Mix.ID), not
// display names, so consol-2 and bfs1-gaus land on one entry.
func TestAliasedMixesShareKeys(t *testing.T) {
	a, err := workload.MixByName("consol-2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.MixByName("bfs1-gaus")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	if cellkey.Key(platform.ZnG, a.ID(), 1.0, cfg) != cellkey.Key(platform.ZnG, b.ID(), 1.0, cfg) {
		t.Errorf("aliasing scenarios (%s vs %s) produced different keys", a.ID(), b.ID())
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(cellkey.Key(platform.GDDR5, "pr", 1.0, config.Default()), sample()); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Entries(); n != 1 {
		t.Errorf("entries = %d, want 1", n)
	}
}
