package config

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"zng/internal/wire"
)

// TestPlanCoversConfig builds Config's codec plan, which panics on a
// field the codec cannot carry, and checks that it names every field.
func TestPlanCoversConfig(t *testing.T) {
	var count func(reflect.Type) int
	count = func(t reflect.Type) int {
		n := 0
		for i := range t.NumField() {
			if f := t.Field(i); f.Type.Kind() == reflect.Struct {
				n += count(f.Type)
			} else {
				n++
			}
		}
		return n
	}
	var leaves func(*structPlan) int
	leaves = func(p *structPlan) int {
		n := 0
		for _, f := range p.fields {
			if f.sub != nil {
				n += leaves(f.sub)
			} else {
				n++
			}
		}
		return n
	}
	if got, want := leaves(plan), count(reflect.TypeFor[Config]()); got != want {
		t.Errorf("the plan carries %d fields, Config has %d", got, want)
	}
}

// TestPlanRejectsUnsupportedFields: what the codec would not encode as
// encoding/json does, and a numeric field without a well-formed range,
// panics when the plan is built.
func TestPlanRejectsUnsupportedFields(t *testing.T) {
	type inner struct {
		N int `range:"0,1"`
	}
	buildPlan(reflect.TypeFor[struct {
		In inner
		B  bool
		F  float64 `range:"-0.5,1e3"`
		P  int     `range:"2,MaxWays,pow2"`
	}](), "")
	for name, typ := range map[string]reflect.Type{
		"uint":    reflect.TypeFor[struct{ N uint }](),
		"string":  reflect.TypeFor[struct{ S string }](),
		"float32": reflect.TypeFor[struct{ F float32 }](),
		"slice":   reflect.TypeFor[struct{ S []int }](),
		"pointer": reflect.TypeFor[struct{ P *int }](),
		"tag": reflect.TypeFor[struct {
			N int `json:"n"`
		}](),
		"range-and-tag": reflect.TypeFor[struct {
			N int `range:"0,1" json:"n"`
		}](),
		"unexported": reflect.TypeFor[struct {
			n int `range:"0,1"`
		}](),
		"embedded": reflect.TypeFor[struct{ inner }](),
		"fold-equal": reflect.TypeFor[struct {
			Ab int `range:"0,1"`
			AB int `range:"0,1"`
		}](),
		"nested":   reflect.TypeFor[struct{ In struct{ S string } }](),
		"no-range": reflect.TypeFor[struct{ N int }](),
		"bool-range": reflect.TypeFor[struct {
			B bool `range:"0,1"`
		}](),
		"one-bound": reflect.TypeFor[struct {
			N int `range:"1"`
		}](),
		"unknown-name": reflect.TypeFor[struct {
			N int `range:"0,MaxBogus"`
		}](),
		"reversed": reflect.TypeFor[struct {
			N int `range:"2,1"`
		}](),
		"float-pow2": reflect.TypeFor[struct {
			F float64 `range:"1,2,pow2"`
		}](),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the plan was built", name)
				}
			}()
			buildPlan(typ, "")
		}()
	}
}

// randConfig fills every field of a Config at random: integers across
// their whole range and near zero (every enum value included), floats
// on both sides of encoding/json's switches to e-notation, the float64
// extremes and signed zeros, and both booleans.
func randConfig(rng *rand.Rand) Config {
	var c Config
	var fill func(reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Bool:
			v.SetBool(rng.IntN(2) == 0)
		case reflect.Float64:
			v.SetFloat(randFloat(rng))
		default:
			switch rng.IntN(4) {
			case 0:
				v.SetInt(int64(rng.IntN(8) - 2))
			case 1:
				v.SetInt([]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.IntN(4)])
			default:
				v.SetInt(int64(rng.Uint64()) >> rng.IntN(64))
			}
		}
	}
	fill(reflect.ValueOf(&c).Elem())
	return c
}

func randFloat(rng *rand.Rand) float64 {
	var f float64
	switch rng.IntN(6) {
	case 0:
		f = []float64{0, 1e-6, 1e21, math.SmallestNonzeroFloat64, math.MaxFloat64,
			math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1e-7, 1e20, 0.5}[rng.IntN(10)]
	case 1:
		for f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0); {
			f = math.Float64frombits(rng.Uint64())
		}
	case 2:
		f = float64(rng.IntN(100))
	default:
		f = rng.Float64() * math.Pow(10, float64(rng.IntN(60)-30))
	}
	if rng.IntN(2) == 0 {
		f = -f
	}
	return f
}

// refDecode is the reference decoder: json.Decoder with
// DisallowUnknownFields over a copy of base.
func refDecode(base Config, b []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&base)
	return base, err
}

// decode is the codec under test: DecodeJSON over a copy of base, with
// only whitespace after the value.
func decode(base Config, b []byte) (Config, error) {
	var d wire.Decoder
	d.Reset(b)
	base.DecodeJSON(&d)
	d.End()
	return base, d.Err()
}

// TestConfigCodecMatchesReference: 10,000 random configurations encode
// to json.Marshal's bytes, and decode from them, over a different
// random configuration, to themselves.
func TestConfigCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 2605))
	for i := range 10_000 {
		c := randConfig(rng)
		got, err := c.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("config %d: encoding differs from json.Marshal's\n got %s\nwant %s", i, got, want)
		}
		back, err := decode(randConfig(rng), got)
		if err != nil || back != c {
			t.Fatalf("config %d: decoded %+v (%v), want %+v", i, back, err, c)
		}
	}
}

// TestConfigEncodeNonFinite: a NaN or infinite float is an error, as it
// is for json.Marshal.
func TestConfigEncodeNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := Default()
		c.FTL.GCThreshold = f
		if _, err := c.AppendJSON(nil); err == nil || !strings.Contains(err.Error(), "FTL.GCThreshold") {
			t.Errorf("GCThreshold %v: error %v, want one naming FTL.GCThreshold", f, err)
		}
		if _, err := json.Marshal(c); err == nil {
			t.Errorf("GCThreshold %v: json.Marshal encoded it", f)
		}
	}
}

// TestConfigDecodeMatchesReference: partial, case-folded, repeated and
// malformed objects decode over Default as json.Decoder with
// DisallowUnknownFields does, accepting the same inputs.
func TestConfigDecodeMatchesReference(t *testing.T) {
	for _, in := range []string{
		`{}`, `null`, ` { "Flash" : { "Channels" : 8 } } `,
		`{"flash":{"channels":8}}`, `{"FLASH":{"CHANNELS":8,"channelgbps":2.5}}`,
		"{\"Flash\":{\"Channelſ\":8}}", "{\"MMU\":{\"WalKCacheEnt\":7}}",
		`{"Flash":null}`, `{"Flash":{"Channels":null}}`, `{"L2STT":{"ReadOnly":null,"WriteBack":true}}`,
		`{"Flash":{"Channels":8},"Flash":{"PageBytes":512}}`, `{"GPU":{"SMs":4,"SMs":5}}`,
		`{"Flash":{"Channels":-0}}`, `{"FTL":{"GCThreshold":-0}}`, `{"FTL":{"GCThreshold":1E-400}}`,
		`{"Flash":{"Channels":9223372036854775807}}`, `{"Flash":{"Channels":-9223372036854775808}}`,
		`{"Flash":{"Channels":1.0}}`, `{"Flash":{"Channels":1e2}}`, `{"Flash":{"Channels":9223372036854775808}}`,
		`{"FTL":{"GCThreshold":1e400}}`, `{"FTL":{"GCThreshold":"0.5"}}`, `{"L1":{"ReadOnly":1}}`,
		`{"Flash":{"Bogus":1}}`, `{"Bogus":{}}`, `{"Flash":8}`, `{"Flash":[]}`, `[]`, `8`, `{"Flash":{"Channels":01}}`,
		`{"Flash":{"Channels":8,}}`, `{"Flash":{"Channels":8}`, `{"Flash":{"Channels":+8}}`, `{"Flash":{"Channels":.5}}`,
		`{"L1":{"WriteBack":tru}}`, `{"Flash":{"Channels":3}}`, `{"Flash":{"Channels":NaN}}`,
	} {
		got, err := decode(Default(), []byte(in))
		want, refErr := refDecode(Default(), []byte(in))
		if (err == nil) != (refErr == nil) {
			t.Errorf("%s: error %v, reference error %v", in, err, refErr)
			continue
		}
		if err == nil && got != want {
			t.Errorf("%s: decoded %+v, reference %+v", in, got, want)
		}
	}
	if _, err := decode(Default(), []byte(`{"Flash":{"Bogus":1}}`)); err == nil || !strings.Contains(err.Error(), `"Flash.Bogus"`) {
		t.Errorf("unknown field error %v does not name Flash.Bogus", err)
	}
	// An integer that does not parse as int64 names its field too.
	for in, want := range map[string]string{
		`{"L2STT":{"Sets":18446744073709552640}}`: `offset 37: config: L2STT.Sets: strconv.ParseInt: parsing "18446744073709552640": value out of range`,
		`{"Flash":{"Channels":1e2}}`:              `config: Flash.Channels: strconv.ParseInt: parsing "1e2": invalid syntax`,
		`{"MMU":{"WalkLevels":2.5}}`:              `config: MMU.WalkLevels: strconv.ParseInt: parsing "2.5": invalid syntax`,
	} {
		if _, err := decode(Default(), []byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", in, err, want)
		}
	}
}
