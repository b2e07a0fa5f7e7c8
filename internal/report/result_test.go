package report

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"zng/internal/platform"
	"zng/internal/sim"
)

func TestResultCodecRoundTrip(t *testing.T) {
	want := platform.Result{
		Kind:           platform.ZnGRdopt,
		Workload:       "bfs1-gaus",
		IPC:            1.234567,
		Cycles:         42_000_000,
		Insts:          51_800_000,
		FlashReadGBps:  33.3,
		FlashWriteGBps: 4.75,
		PlaneWrites:    []uint64{1, 0, 9},
		L2HitRate:      0.5,
		TLBHitRate:     0.96875,
		Extra:          map[string]float64{"prefetch_kb": 2048, "reg_migrations": 3},
	}
	got, err := DecodeResult(EncodeResult(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestResultCodecDeterministic: identical results must encode to
// identical bytes — the property the store's disk-equals-fresh
// guarantee and the determinism test in simsvc stand on. The Extra
// map is the risky part (map iteration is random); encoding/json
// sorts its keys.
func TestResultCodecDeterministic(t *testing.T) {
	mk := func() platform.Result {
		return platform.Result{
			Kind:     platform.ZnG,
			Workload: "betw-back",
			IPC:      2.5,
			Extra: map[string]float64{
				"e": 5, "d": 4, "c": 3, "b": 2, "a": 1,
			},
		}
	}
	a := EncodeResult(mk())
	for i := 0; i < 16; i++ {
		if b := EncodeResult(mk()); !bytes.Equal(a, b) {
			t.Fatalf("encoding not deterministic:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestResultCodecRejectsMalformed(t *testing.T) {
	for name, in := range map[string][]byte{
		"truncated":    []byte(`{"kind":"ZnG","ipc":`),
		"unknown kind": []byte(`{"kind":"PDP-11","ipc":1}`),
		"non-object":   []byte(`"hi"`),
		"empty":        {},
	} {
		if _, err := DecodeResult(in); err == nil {
			t.Errorf("%s input decoded without error", name)
		}
	}
}

// TestResultCodecEmptyFieldsStable: a fresh DRAM-platform result (nil
// PlaneWrites, empty Extra) and its decoded round-trip must encode to
// the same bytes even though nil-vs-empty differ in memory — the
// omitempty contract the byte-for-byte disk comparison relies on.
func TestResultCodecEmptyFieldsStable(t *testing.T) {
	fresh := platform.Result{Kind: platform.GDDR5, Workload: "solo-pr", IPC: 3, Extra: map[string]float64{}}
	a := EncodeResult(fresh)
	rt, err := DecodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	if b := EncodeResult(rt); !bytes.Equal(a, b) {
		t.Errorf("re-encoding a round-tripped result changed bytes:\n%s\nvs\n%s", a, b)
	}
}

// refResult is the struct whose encoding/json form the result codec
// reproduces: declaration order is key order, the Extra map marshals
// with sorted keys, and empty PlaneWrites and Extra are omitted.
type refResult struct {
	Kind           string             `json:"kind"`
	Workload       string             `json:"workload"`
	IPC            float64            `json:"ipc"`
	Cycles         int64              `json:"cycles"`
	Insts          uint64             `json:"insts"`
	FlashReadGBps  float64            `json:"flash_read_gbps"`
	FlashWriteGBps float64            `json:"flash_write_gbps"`
	PlaneWrites    []uint64           `json:"plane_writes,omitempty"`
	L2HitRate      float64            `json:"l2_hit_rate"`
	TLBHitRate     float64            `json:"tlb_hit_rate"`
	Extra          map[string]float64 `json:"extra,omitempty"`
}

// refEncode is the reference encoder: MarshalIndent of refResult.
func refEncode(r platform.Result) []byte {
	out, err := json.MarshalIndent(refResult{
		Kind:           r.Kind.String(),
		Workload:       r.Workload,
		IPC:            r.IPC,
		Cycles:         int64(r.Cycles),
		Insts:          r.Insts,
		FlashReadGBps:  r.FlashReadGBps,
		FlashWriteGBps: r.FlashWriteGBps,
		PlaneWrites:    r.PlaneWrites,
		L2HitRate:      r.L2HitRate,
		TLBHitRate:     r.TLBHitRate,
		Extra:          r.Extra,
	}, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// refDecode is the reference decoder: json.Unmarshal into refResult.
func refDecode(b []byte) (platform.Result, error) {
	var doc refResult
	if err := json.Unmarshal(b, &doc); err != nil {
		return platform.Result{}, err
	}
	kind, err := platform.KindByName(doc.Kind)
	if err != nil {
		return platform.Result{}, err
	}
	return platform.Result{
		Kind:           kind,
		Workload:       doc.Workload,
		IPC:            doc.IPC,
		Cycles:         sim.Tick(doc.Cycles),
		Insts:          doc.Insts,
		FlashReadGBps:  doc.FlashReadGBps,
		FlashWriteGBps: doc.FlashWriteGBps,
		PlaneWrites:    doc.PlaneWrites,
		L2HitRate:      doc.L2HitRate,
		TLBHitRate:     doc.TLBHitRate,
		Extra:          doc.Extra,
	}, nil
}

// labelPieces are the fragments random labels and Extra keys are made
// of: everything encoding/json escapes (HTML characters, quotes,
// backslashes, control bytes, U+2028 and U+2029), invalid UTF-8 of
// several shapes, and valid multi-byte text, U+FFFD included.
var labelPieces = []string{
	"bfs1", "-", "gaus", "_", " ", "<", ">", "&", `"`, `\`, "/", "'",
	"\x00", "\x01", "\b", "\t", "\n", "\f", "\r", "\x1f", "\x7f",
	"\u2028", "\u2029", "\xff", "\xc0", "\x80", "\xe2\x80", "\xed\xa0\x80",
	"\u00e9", "\u65e5\u672c", "\U0001f600", "\ufffd", "\ufffe",
}

func randLabel(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.IntN(6); n > 0; n-- {
		sb.WriteString(labelPieces[rng.IntN(len(labelPieces))])
	}
	return sb.String()
}

// randFloat draws from both sides of encoding/json's switches to
// e-notation (below 1e-6 and from 1e21 on), the extremes of float64,
// signed zeros and arbitrary bit patterns; never NaN or ±Inf.
func randFloat(rng *rand.Rand) float64 {
	var f float64
	switch rng.IntN(8) {
	case 0:
		f = []float64{0, 1e-6, 1e21, math.SmallestNonzeroFloat64, math.MaxFloat64,
			math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1e-7, 1e20, 0.5}[rng.IntN(10)]
	case 1:
		f = float64(rng.Uint64() >> rng.IntN(64))
	case 2:
		for f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0); {
			f = math.Float64frombits(rng.Uint64())
		}
	default:
		f = rng.Float64() * math.Pow(10, float64(rng.IntN(60)-30))
	}
	if rng.IntN(2) == 0 {
		f = -f
	}
	return f
}

func randResult(rng *rand.Rand) platform.Result {
	kinds := platform.AllKinds()
	r := platform.Result{
		Kind:           kinds[rng.IntN(len(kinds))],
		Workload:       randLabel(rng),
		IPC:            randFloat(rng),
		Cycles:         sim.Tick(rng.Uint64()),
		Insts:          rng.Uint64() >> rng.IntN(64),
		FlashReadGBps:  randFloat(rng),
		FlashWriteGBps: randFloat(rng),
		L2HitRate:      randFloat(rng),
		TLBHitRate:     randFloat(rng),
	}
	switch rng.IntN(32) {
	case 0: // nil
	case 1:
		r.PlaneWrites = []uint64{}
	case 2: // the Table I array's 1,024 planes
		r.PlaneWrites = make([]uint64, 1024)
	default:
		r.PlaneWrites = make([]uint64, 1+rng.IntN(16))
		for i := range r.PlaneWrites {
			r.PlaneWrites[i] = rng.Uint64() >> rng.IntN(64)
		}
	}
	switch rng.IntN(4) {
	case 0: // nil
	case 1:
		r.Extra = map[string]float64{}
	default:
		r.Extra = map[string]float64{}
		for n := 1 + rng.IntN(20); n > 0; n-- {
			r.Extra[randLabel(rng)] = randFloat(rng)
		}
	}
	return r
}

// TestResultCodecMatchesReference: EncodeResult writes exactly the
// reference's bytes for random results, and the canonical, compacted
// and re-indented forms of each document decode to exactly the
// reference's result.
func TestResultCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 2020))
	for i := range 10_000 {
		r := randResult(rng)
		doc := EncodeResult(r)
		want := refEncode(r)
		if !bytes.Equal(doc, want) {
			t.Fatalf("result %d: encoding differs from encoding/json's\n got %q\nwant %q", i, doc, want)
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&indented, compact.Bytes(), "\r", "\t "); err != nil {
			t.Fatal(err)
		}
		for form, b := range map[string][]byte{"canonical": doc, "compact": compact.Bytes(), "indented": indented.Bytes()} {
			got, err := DecodeResult(b)
			ref, refErr := refDecode(b)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("result %d, %s form: error %v, reference error %v\n%q", i, form, err, refErr, b)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("result %d, %s form: decoded\n%+v\nreference decoded\n%+v", i, form, got, ref)
			}
		}
	}
}

// TestResultCodecNonFinitePanics: a NaN or infinite field has no JSON
// form, so EncodeResult panics as the reference does.
func TestResultCodecNonFinitePanics(t *testing.T) {
	fields := map[string]func(*platform.Result, float64){
		"ipc":              func(r *platform.Result, f float64) { r.IPC = f },
		"flash_read_gbps":  func(r *platform.Result, f float64) { r.FlashReadGBps = f },
		"flash_write_gbps": func(r *platform.Result, f float64) { r.FlashWriteGBps = f },
		"l2_hit_rate":      func(r *platform.Result, f float64) { r.L2HitRate = f },
		"tlb_hit_rate":     func(r *platform.Result, f float64) { r.TLBHitRate = f },
		"extra":            func(r *platform.Result, f float64) { r.Extra = map[string]float64{"x": f} },
	}
	for name, set := range fields {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := platform.Result{Kind: platform.ZnG}
			set(&r, f)
			for _, enc := range []func(platform.Result) []byte{EncodeResult, refEncode} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s = %v encoded without a panic", name, f)
						}
					}()
					enc(r)
				}()
			}
		}
	}
}

// FuzzDecodeResult: whatever DecodeResult accepts, encoding/json reads
// into the same Result, and a canonical document (one the reference
// encoder writes for the result it reads) re-encodes to itself.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeResult(b)
		if err != nil {
			return
		}
		want, err := refDecode(b)
		if err != nil {
			t.Fatalf("accepted a document encoding/json rejects (%v):\n%q", err, b)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n%+v\nencoding/json decoded\n%+v", got, want)
		}
		if bytes.Equal(refEncode(want), b) && !bytes.Equal(EncodeResult(got), b) {
			t.Fatalf("canonical document re-encodes differently:\n%q\n%q", b, EncodeResult(got))
		}
	})
}

// planeDocResult is a ZnG-shaped result: 1,024 planes (16 channels × 8
// dies × 8 planes) of program counts and 16 Extra entries.
func planeDocResult() platform.Result {
	rng := rand.New(rand.NewPCG(8, 1024))
	r := platform.Result{Kind: platform.ZnG, Workload: "bfs1-gaus", IPC: 0.52147, Cycles: 41_234_567,
		Insts: 51_800_000, FlashReadGBps: 33.318, FlashWriteGBps: 1.25, L2HitRate: 0.4375, TLBHitRate: 0.96875,
		PlaneWrites: make([]uint64, 1024), Extra: map[string]float64{}}
	for i := range r.PlaneWrites {
		r.PlaneWrites[i] = uint64(rng.IntN(40))
	}
	for _, k := range []string{"reg_hits", "reg_evictions", "reg_read_hits", "reg_migrations", "pinned_pages",
		"log_programs", "gc_merges", "stalled_writes", "mesh_bytes", "demand_fills", "prefetch_bytes",
		"reg_page_hits", "sense_merges", "translation_state_bytes", "mapped_pages", "prefetch_issued"} {
		r.Extra[k] = float64(rng.IntN(1 << 20))
	}
	return r
}

// BenchmarkResultCodec times one encode and one decode of a 1,024-plane
// document.
func BenchmarkResultCodec(b *testing.B) {
	r := planeDocResult()
	doc := EncodeResult(r)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for b.Loop() {
			EncodeResult(r)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for b.Loop() {
			if _, err := DecodeResult(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestResultCodecDecodesEscapes: string escapes EncodeResult never
// writes, such as \/, \u escapes and surrogate pairs, decode as
// encoding/json decodes them, an unpaired surrogate as U+FFFD.
func TestResultCodecDecodesEscapes(t *testing.T) {
	doc := string(EncodeResult(platform.Result{Kind: platform.GDDR5, Workload: "LABEL", Extra: map[string]float64{"KEY": 1}}))
	for _, s := range []string{
		`\/\b\f\n\r\t\"\\`, `\u00e9\u00E9`, `\ud83d\ude00`, `\uD83D\uDE00`, `\ud800`, `\udc00x`,
		`\ud800\u0041`, `\ud800\ud800\udc00`, `\udbff\udfff`, `\u0000\u001f`, "\xff\xfe", "\xed\xa0\x80",
		"\xe2\x80", "\u65e5\u672c\U0001f600",
	} {
		b := []byte(strings.Replace(strings.Replace(doc, "LABEL", s, 1), "KEY", s, 1))
		got, err := DecodeResult(b)
		want, refErr := refDecode(b)
		if err != nil || refErr != nil {
			t.Errorf("%q: error %v, reference error %v", s, err, refErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decoded %q %v, encoding/json decoded %q %v", s, got.Workload, got.Extra, want.Workload, want.Extra)
		}
	}
}

// TestResultCodecRejectsNonCanonical: the decoder reads EncodeResult's
// layout only. Other layouts, some of them valid JSON that
// encoding/json would read, are malformed.
func TestResultCodecRejectsNonCanonical(t *testing.T) {
	doc := string(EncodeResult(platform.Result{Kind: platform.ZnG, Workload: "w", IPC: 1, Cycles: 2, Insts: 3,
		PlaneWrites: []uint64{4, 5}, Extra: map[string]float64{"a": 6}}))
	if _, err := DecodeResult([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	edits := map[string][2]string{
		"trailing data":      {"}\n", "}\n}"},
		"trailing NUL":       {"}\n", "}\n\x00"},
		"unknown key":        {`"ipc"`, `"IPC"`},
		"escaped key":        {`"ipc"`, `"\u0069pc"`},
		"missing key":        {`"insts": 3,`, ``},
		"reordered keys":     {"\"cycles\": 2,\n  \"insts\": 3", "\"insts\": 3,\n  \"cycles\": 2"},
		"repeated key":       {`"insts": 3,`, `"insts": 3, "insts": 3,`},
		"empty plane array":  {"[\n    4,\n    5\n  ]", "[]"},
		"empty extra":        {"{\n    \"a\": 6\n  }", "{}"},
		"null":               {`"ipc": 1`, `"ipc": null`},
		"string number":      {`"ipc": 1`, `"ipc": "1"`},
		"fractional cycles":  {`"cycles": 2`, `"cycles": 2.0`},
		"exponent insts":     {`"insts": 3`, `"insts": 3e0`},
		"negative insts":     {`"insts": 3`, `"insts": -3`},
		"signed plane":       {"    4,", "    +4,"},
		"leading zero":       {"    4,", "    04,"},
		"fraction in planes": {"    4,", "    4.5,"},
		"overflowing insts":  {`"insts": 3`, `"insts": 18446744073709551616`},
		"overflowing ipc":    {`"ipc": 1`, `"ipc": 1e400`},
		"bare decimal point": {`"ipc": 1`, `"ipc": 1.`},
		"NaN":                {`"ipc": 1`, `"ipc": NaN`},
		"control byte":       {`"w"`, "\"w\x01\""},
		"bad escape":         {`"w"`, `"w\x"`},
		"quote escape":       {`"w"`, `"w\'"`},
		"short \\u escape":   {`"w"`, `"\u12"`},
		"form feed space":    {`"ipc": 1`, "\"ipc\":\f1"},
		"unknown platform":   {`"ZnG"`, `"zng"`},
	}
	for name, e := range edits {
		b := strings.Replace(doc, e[0], e[1], 1)
		if b == doc {
			t.Fatalf("%s: edit did not apply", name)
		}
		if _, err := DecodeResult([]byte(b)); err == nil {
			t.Errorf("%s: decoded without error:\n%s", name, b)
		}
	}
}
