package report

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"zng/internal/platform"
	"zng/internal/sim"
	"zng/internal/wire"
)

// A result document is one JSON object with a fixed key order, the
// Kind spelled as its String form, so it is both human-inspectable in
// a cache directory and byte-deterministic:
//
//	{
//	  "kind": "ZnG",
//	  "workload": "bfs1+gaus",
//	  "ipc": 0.5,
//	  "cycles": 123,
//	  "insts": 456,
//	  "flash_read_gbps": 33.3,
//	  "flash_write_gbps": 0,
//	  "plane_writes": [
//	    0,
//	    7
//	  ],
//	  "l2_hit_rate": 0.25,
//	  "tlb_hit_rate": 0.96875,
//	  "extra": {
//	    "mapped_pages": 42
//	  }
//	}
//
// "plane_writes" and "extra" are omitted when empty. PlaneWrites is
// nil whenever no plane was programmed, so only a cell that programmed
// its flash carries the array, one line per plane, and a reader takes
// a missing array for all zeros. The bytes are exactly what
// encoding/json's MarshalIndent with a two-space indent writes for a
// struct of those fields, Extra's keys sorted; the tests
// hold the codec to that reference, since stored documents and result
// digests are those bytes. The persistent result store
// (internal/store) relies on that determinism for its
// disk-equals-fresh guarantee.

// EncodeResult renders one simulation result as an indented JSON
// document with a trailing newline. Encoding the same Result always
// yields the same bytes. A NaN or infinite field has no JSON form and
// panics: the simulator never produces one.
func EncodeResult(r platform.Result) []byte {
	b := make([]byte, 0, encodedSize(r))
	b = append(b, "{\n  \"kind\": "...)
	b = wire.AppendString(b, r.Kind.String())
	b = append(b, ",\n  \"workload\": "...)
	b = wire.AppendString(b, r.Workload)
	b = append(b, ",\n  \"ipc\": "...)
	b = wire.AppendFloat(b, r.IPC)
	b = append(b, ",\n  \"cycles\": "...)
	b = strconv.AppendInt(b, int64(r.Cycles), 10)
	b = append(b, ",\n  \"insts\": "...)
	b = strconv.AppendUint(b, r.Insts, 10)
	b = append(b, ",\n  \"flash_read_gbps\": "...)
	b = wire.AppendFloat(b, r.FlashReadGBps)
	b = append(b, ",\n  \"flash_write_gbps\": "...)
	b = wire.AppendFloat(b, r.FlashWriteGBps)
	if len(r.PlaneWrites) > 0 {
		b = append(b, ",\n  \"plane_writes\": ["...)
		for i, n := range r.PlaneWrites {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = strconv.AppendUint(b, n, 10)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"l2_hit_rate\": "...)
	b = wire.AppendFloat(b, r.L2HitRate)
	b = append(b, ",\n  \"tlb_hit_rate\": "...)
	b = wire.AppendFloat(b, r.TLBHitRate)
	if len(r.Extra) > 0 {
		var keyBuf [32]string
		keys := keyBuf[:0]
		for k := range r.Extra {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, ",\n  \"extra\": {"...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = wire.AppendString(b, k)
			b = append(b, ": "...)
			b = wire.AppendFloat(b, r.Extra[k])
		}
		b = append(b, "\n  }"...)
	}
	return append(b, "\n}\n"...)
}

// encodedSize bounds the document's length from above, so
// EncodeResult allocates once: the keys, punctuation, kind and two
// integers take under 300 bytes, a string escapes to at most six bytes
// per input byte, a float takes at most 25 and each plane line six
// plus its digits.
func encodedSize(r platform.Result) int {
	n := 300 + 6*len(r.Workload) + 5*25
	for _, w := range r.PlaneWrites {
		// A decimal digit holds more than three bits.
		n += 7 + bits.Len64(w)/3
	}
	for k := range r.Extra {
		n += 10 + 6*len(k) + 25
	}
	return n
}

// DecodeResult parses an EncodeResult document back into a
// platform.Result in one pass. It accepts EncodeResult's keys in
// EncodeResult's order with any JSON whitespace between tokens, so a
// compacted or re-indented document reads back too. Anything else —
// a truncated file, invalid JSON, a missing, unknown or reordered key,
// an unknown platform name — is an error, and callers holding cached
// bytes treat it as a miss and re-simulate. Every document it accepts,
// encoding/json reads into the same Result.
func DecodeResult(b []byte) (platform.Result, error) {
	var d decoder
	d.Reset(b)
	r := d.result()
	if err := d.Err(); err != nil {
		return platform.Result{}, fmt.Errorf("report: decoding result: %w", err)
	}
	return r, nil
}

// decoder reads one result document with the shared JSON reader.
type decoder struct{ wire.Decoder }

func (d *decoder) result() platform.Result {
	var r platform.Result
	d.Expect('{')
	d.key("kind")
	r.Kind = d.kind()
	d.Expect(',')
	d.key("workload")
	r.Workload = string(d.Str())
	d.Expect(',')
	d.key("ipc")
	r.IPC = d.Float()
	d.Expect(',')
	d.key("cycles")
	r.Cycles = sim.Tick(d.Int())
	d.Expect(',')
	d.key("insts")
	r.Insts = d.Uint()
	d.Expect(',')
	d.key("flash_read_gbps")
	r.FlashReadGBps = d.Float()
	d.Expect(',')
	d.key("flash_write_gbps")
	r.FlashWriteGBps = d.Float()
	d.Expect(',')
	if d.ConsumeKey("plane_writes") {
		r.PlaneWrites = d.planeWrites()
		d.Expect(',')
	}
	d.key("l2_hit_rate")
	r.L2HitRate = d.Float()
	d.Expect(',')
	d.key("tlb_hit_rate")
	r.TLBHitRate = d.Float()
	if d.Consume(',') {
		d.key("extra")
		r.Extra = d.extra()
	}
	d.Expect('}')
	d.End()
	return r
}

// key consumes `"name":`, the name spelled without escapes.
func (d *decoder) key(name string) {
	if !d.ConsumeKey(name) {
		d.Fail(fmt.Errorf("%w: want key %q", wire.ErrSyntax, name))
	}
}

// kinds is the platform vocabulary DecodeResult resolves names in.
var kinds = platform.AllKinds()

// kind reads the platform name.
func (d *decoder) kind() platform.Kind {
	name := d.Str()
	for _, k := range kinds {
		if k.String() == string(name) {
			return k
		}
	}
	if d.Err() == nil {
		_, err := platform.KindByName(string(name))
		d.Fail(err)
	}
	return 0
}

// planeWrites reads the non-empty "plane_writes" array. Its commas
// size the slice, so it is allocated once.
func (d *decoder) planeWrites() []uint64 {
	d.Expect('[')
	rest := d.Rest()
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]uint64, 0, bytes.Count(rest, []byte{','})+1)
	for {
		out = append(out, d.Uint())
		if !d.Consume(',') {
			break
		}
	}
	d.Expect(']')
	return out
}

// extra reads the non-empty "extra" object. The keys share one
// allocation: they are gathered first, then cut from one string. A
// repeated key keeps its last value, as with encoding/json:
// EncodeResult writes keys in sorted order, but two keys that differ
// only in invalid UTF-8 come out as the same escaped name.
func (d *decoder) extra() map[string]float64 {
	type entry struct {
		end int // of the key in keys
		v   float64
	}
	var (
		keyBuf   [512]byte
		entryBuf [32]entry
	)
	keys, entries := keyBuf[:0], entryBuf[:0]
	d.Expect('{')
	for {
		keys = append(keys, d.Str()...)
		d.Expect(':')
		entries = append(entries, entry{len(keys), d.Float()})
		if !d.Consume(',') {
			break
		}
	}
	d.Expect('}')
	all := string(keys)
	out := make(map[string]float64, len(entries))
	start := 0
	for _, e := range entries {
		out[all[start:e.end]] = e.v
		start = e.end
	}
	return out
}
