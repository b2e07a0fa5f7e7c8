package platform

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"zng/internal/config"
	"zng/internal/workload"
)

// numericField is one numeric leaf of a configuration: its path from
// config.Config and its settable value.
type numericField struct {
	path string
	v    reflect.Value
}

// numericFields lists the numeric leaves of *cfg in declaration order.
func numericFields(cfg *config.Config) []numericField {
	var out []numericField
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := range v.NumField() {
			f, path := v.Field(i), prefix+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, path+".")
			case reflect.Bool:
			default:
				out = append(out, numericField{path, f})
			}
		}
	}
	walk(reflect.ValueOf(cfg).Elem(), "")
	return out
}

// runLimited runs one cell, stopping it after limit events. A model
// panic is runApps' error naming the platform, which no test accepts.
func runLimited(k Kind, mix workload.Mix, scale float64, cfg config.Config, limit uint64) (Result, error) {
	apps, err := mix.Apps(scale)
	if err != nil {
		return Result{}, err
	}
	return runApps(k, mix.ID(), apps, cfg, limit)
}

// TestRunAppsZeroValues sets each numeric field of the configuration
// to zero, one at a time, and runs every platform on solo-deg at scale
// 0.02 (5,277 instructions): each run is config.Validate's error
// naming the field or a result, never a panic. Before the declared
// ranges, 49 of these runs panicked, in 13 fields (as on betw-back).
func TestRunAppsZeroValues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every platform")
	}
	mix, err := workload.MixByName("solo-deg")
	if err != nil {
		t.Fatal(err)
	}
	base := testCfg()
	for i := range numericFields(&base) {
		cfg := base
		f := numericFields(&cfg)[i]
		f.v.SetZero()
		if verr := cfg.Validate(); verr != nil {
			if !strings.Contains(verr.Error(), f.path) {
				t.Errorf("%s = 0: %v does not name the field", f.path, verr)
			}
			if _, err := RunMix(ZnG, mix, 0.02, cfg); err == nil || err.Error() != verr.Error() {
				t.Errorf("%s = 0: RunApps error %v, want %v", f.path, err, verr)
			}
			continue
		}
		var wg sync.WaitGroup
		for _, k := range AllKinds() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := RunMix(k, mix, 0.02, cfg); err != nil {
					t.Errorf("%s = 0 on %v: %v", f.path, k, err)
				}
			}()
		}
		wg.Wait()
	}
}

// fuzzEvents caps FuzzConfig's cells. The tiny cell needs 5,000 to
// 10,000 events on testCfg; a mutation that slows the model down
// further ends in the cap's error.
const fuzzEvents = 200_000

// FuzzConfig mutates two numeric fields of a tiny cell's configuration,
// each to 0, -1, ×1e3, ×1e-3 or the fuzzer's value, and runs the cell
// on the platform the fuzzer picks under a small event cap. Every
// outcome is config.Validate's error, the cap's error or a result whose
// numbers are finite; none is a panic. Seeds: testdata/fuzz/FuzzConfig.
func FuzzConfig(f *testing.F) {
	mix, err := workload.MixByName("solo-deg")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind uint8, field1, op1 uint8, v1 float64, field2, op2 uint8, v2 float64) {
		cfg := testCfg()
		fields := numericFields(&cfg)
		for _, m := range []struct {
			field, op uint8
			v         float64
		}{{field1, op1, v1}, {field2, op2, v2}} {
			fv := fields[int(m.field)%len(fields)].v
			var x float64
			if fv.Kind() == reflect.Float64 {
				x = fv.Float()
			} else {
				x = float64(fv.Int())
			}
			x = []float64{0, -1, x * 1e3, x * 1e-3, m.v}[m.op%5]
			if fv.Kind() == reflect.Float64 {
				fv.SetFloat(x)
			} else if x >= math.MinInt64 && x < math.MaxInt64 {
				fv.SetInt(int64(x))
			}
		}
		k := AllKinds()[int(kind)%len(AllKinds())]
		r, err := runLimited(k, mix, 0.001, cfg, fuzzEvents)
		if err != nil {
			verr := cfg.Validate()
			if (verr == nil || err.Error() != verr.Error()) && !strings.HasSuffix(err.Error(), "events") {
				t.Fatalf("%v: %v, neither a validation error nor the event cap", k, err)
			}
			return
		}
		for name, x := range map[string]float64{
			"IPC": r.IPC, "FlashReadGBps": r.FlashReadGBps, "FlashWriteGBps": r.FlashWriteGBps,
			"L2HitRate": r.L2HitRate, "TLBHitRate": r.TLBHitRate,
		} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%v: %s is %v", k, name, x)
			}
		}
		for name, x := range r.Extra {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%v: Extra[%s] is %v", k, name, x)
			}
		}
	})
}

// TestFuzzConfigSeedsTargetTheirFields pins each FuzzConfig seed to the
// mutations its name states. A seed picks its fields by ordinal among
// config.Config's numeric leaves, so a leaf added or removed before a
// seed's field silently re-targets it; this test names the seed instead.
func TestFuzzConfigSeedsTargetTheirFields(t *testing.T) {
	want := map[string]string{
		"blocks-zero":                          "Flash.BlocksPerPl=0, GPU.SMs=8",
		"channels-x1e3":                        "Flash.Channels×1e3, GPU.SMs=8",
		"counter-bits-minus-1":                 "Prefetch.CounterBits=-1, GPU.SMs=8",
		"firmware-and-helper-x1e3":             "Engine.FTLLatPerReq×1e3, FTL.HelperThreadLat×1e3",
		"gpu-pages-one-ways-zero":              "Host.GPUMemPages=1, L2SRAM.Ways=0",
		"one-plane-per-die-one-page-per-block": "Flash.PlanesPerDie=1, Flash.PagesPerBlock=1",
		"page-bytes-4000":                      "Flash.PageBytes=4000, GPU.SMs=8",
		"page-bytes-6144":                      "Flash.PageBytes=6144, GPU.SMs=8",
		"reg-net-7":                            "RegCache.Net=7, GPU.SMs=8",
		"reg-net-minus-1":                      "RegCache.Net=-1, GPU.SMs=8",
		"table-entries-x1e-3":                  "Prefetch.TableEntries×1e-3, GPU.SMs=8",
		"table-i":                              "GPU.SMs=8, GPU.SMs=8",
		"walk-levels-minus-1":                  "MMU.WalkLevels=-1, GPU.SMs=8",
	}
	cfg := testCfg()
	fields := numericFields(&cfg)
	dir := filepath.Join("testdata", "fuzz", "FuzzConfig")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("%d seeds in %s, want the %d this test pins", len(entries), dir, len(want))
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// The arguments, one a line after the header: kind, then field,
		// op and value for each of the two mutations.
		args := strings.Split(strings.TrimSpace(string(b)), "\n")[1:]
		if len(args) != 7 {
			t.Fatalf("%s: %d arguments, want 7", e.Name(), len(args))
		}
		var got []string
		for _, m := range [][]string{args[1:4], args[4:7]} {
			field, errF := seedByte(m[0])
			op, errO := seedByte(m[1])
			v, errV := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(m[2], "float64("), ")"), 64)
			if err := errors.Join(errF, errO, errV); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			mut := []string{"=0", "=-1", "×1e3", "×1e-3", "=" + strconv.FormatFloat(v, 'g', -1, 64)}[op%5]
			got = append(got, fields[int(field)%len(fields)].path+mut)
		}
		if g := strings.Join(got, ", "); g != want[e.Name()] {
			t.Errorf("seed %s mutates %s, want %q", e.Name(), g, want[e.Name()])
		}
	}
}

// seedByte reads a byte('…') argument of a fuzz seed file.
func seedByte(arg string) (byte, error) {
	lit := strings.TrimSuffix(strings.TrimPrefix(arg, "byte('"), "')")
	r, _, rest, err := strconv.UnquoteChar(lit, '\'')
	if err != nil || rest != "" || r > 0xff {
		return 0, fmt.Errorf("%s is not a byte argument", arg)
	}
	return byte(r), nil
}
