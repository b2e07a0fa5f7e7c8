package cellkey

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"zng/internal/config"
	"zng/internal/platform"
)

// TestKeyGolden pins three keys. A change to any of them leaves every
// existing store cold without a word, so a deliberate one comes with a
// SchemaVersion bump and new values here.
func TestKeyGolden(t *testing.T) {
	if SchemaVersion != 7 {
		t.Fatalf("SchemaVersion = %d; the golden keys below are for 7", SchemaVersion)
	}
	cfg := config.Default()
	cfg.Flash.Channels = 8
	cfg.RegCache.Net = config.SWnet
	cfg.L2STT.ReadOnly = false
	cfg.FTL.GCThreshold = 1e-7
	for _, tc := range []struct {
		kind  platform.Kind
		mix   string
		scale float64
		cfg   config.Config
		want  string
	}{
		{platform.ZnG, "bfs1+gaus", 2, config.Default(), "f539577007c315704efd7720e39fc9e7578b9bff6e0e399a759893556c3ed8b7"},
		{platform.HybridGPU, "bfs1", 0.05, config.Default(), "332cb24e08d4d9fb6a4dbb0ab04a535c92dabb786fc0637edb74345d786e0997"},
		{platform.ZnGBase, "oltp*2+fbfs", 1.28, cfg, "457d5d8aa578ce5f92f4076fb103af9fa28fcdff2688a687da67f42e4803b116"},
	} {
		if got := Key(tc.kind, tc.mix, tc.scale, tc.cfg); got != tc.want {
			t.Errorf("Key(%v, %q, %v) = %s, want %s", tc.kind, tc.mix, tc.scale, got, tc.want)
		}
	}
}

// refKeyDoc is the cell identity as Key hashed it through encoding/json
// before it wrote the bytes itself.
type refKeyDoc struct {
	Schema int           `json:"schema"`
	Kind   string        `json:"kind"`
	Mix    string        `json:"mix"`
	Scale  float64       `json:"scale"`
	Cfg    config.Config `json:"cfg"`
}

// refKey is the reference key: json.Encoder's bytes, trailing newline
// included, hashed.
func refKey(kind platform.Kind, mixID string, scale float64, cfg config.Config) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(refKeyDoc{SchemaVersion, kind.String(), mixID, scale, cfg}); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keyPieces are what random mix IDs are made of: app names, weights,
// separators and everything encoding/json escapes.
var keyPieces = []string{"bfs1", "gaus", "oltp", "+", "*", "1.5", "1e-07", "2", "<", ">", "&", `"`, `\`,
	"\x00", "\n", " ", "\xff", "é", "\U0001f600"}

// TestKeyMatchesReference: Key hashes exactly the reference's bytes for
// random kinds, mix IDs, scales and configurations.
func TestKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 2605))
	kinds := platform.AllKinds()
	scales := []float64{0.05, 1.28, 2, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0, math.Copysign(0, -1), -3.5}
	for i := range 2000 {
		var mix strings.Builder
		for n := rng.IntN(6); n > 0; n-- {
			mix.WriteString(keyPieces[rng.IntN(len(keyPieces))])
		}
		scale := scales[rng.IntN(len(scales))]
		if rng.IntN(2) == 0 {
			scale = rng.Float64() * math.Pow(10, float64(rng.IntN(40)-20))
		}
		cfg := config.Default()
		cfg.Flash.Channels = rng.IntN(64) - 8
		cfg.FTL.GCThreshold = scales[rng.IntN(len(scales))]
		cfg.L2STT.ReadOnly = rng.IntN(2) == 0
		cfg.RegCache.Net = config.RegCacheNet(rng.IntN(3))
		kind := kinds[rng.IntN(len(kinds))]
		if got, want := Key(kind, mix.String(), scale, cfg), refKey(kind, mix.String(), scale, cfg); got != want {
			t.Fatalf("case %d: Key(%v, %q, %v) = %s, reference %s", i, kind, mix.String(), scale, got, want)
		}
	}
}

// TestKeyNonFinitePanics: a scale or configuration value with no JSON
// form panics, as the reference encoder's error did.
func TestKeyNonFinitePanics(t *testing.T) {
	bad := config.Default()
	bad.Host.PCIeGBps = math.Inf(1)
	for name, call := range map[string]func(){
		"scale":  func() { Key(platform.ZnG, "bfs1", math.NaN(), config.Default()) },
		"config": func() { Key(platform.ZnG, "bfs1", 1, bad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a non-finite %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkKey times one key of the Table I configuration.
func BenchmarkKey(b *testing.B) {
	cfg := config.Default()
	b.ReportAllocs()
	for b.Loop() {
		Key(platform.ZnG, "bfs1+gaus", 2, cfg)
	}
}
