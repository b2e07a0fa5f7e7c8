package report

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"zng/internal/platform"
	"zng/internal/sim"
)

// A result document is one JSON object with a fixed key order, the
// Kind spelled as its String form, so it is both human-inspectable in
// a cache directory and byte-deterministic:
//
//	{
//	  "kind": "ZnG",
//	  "workload": "bfs1-gaus",
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
// "plane_writes" and "extra" are omitted when empty. The bytes are
// exactly what encoding/json's MarshalIndent with a two-space indent
// writes for a struct of those fields, Extra's keys sorted; the tests
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
	b = appendString(b, r.Kind.String())
	b = append(b, ",\n  \"workload\": "...)
	b = appendString(b, r.Workload)
	b = append(b, ",\n  \"ipc\": "...)
	b = appendFloat(b, r.IPC)
	b = append(b, ",\n  \"cycles\": "...)
	b = strconv.AppendInt(b, int64(r.Cycles), 10)
	b = append(b, ",\n  \"insts\": "...)
	b = strconv.AppendUint(b, r.Insts, 10)
	b = append(b, ",\n  \"flash_read_gbps\": "...)
	b = appendFloat(b, r.FlashReadGBps)
	b = append(b, ",\n  \"flash_write_gbps\": "...)
	b = appendFloat(b, r.FlashWriteGBps)
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
	b = appendFloat(b, r.L2HitRate)
	b = append(b, ",\n  \"tlb_hit_rate\": "...)
	b = appendFloat(b, r.TLBHitRate)
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
			b = appendString(b, k)
			b = append(b, ": "...)
			b = appendFloat(b, r.Extra[k])
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

// appendFloat writes f as encoding/json does: the shortest decimal
// that reads back as f, in e-notation (with a one-digit exponent
// where it fits) below 1e-6 and from 1e21 on.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("report: unsupported value %v in a result", f))
	}
	abs := math.Abs(f)
	if abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	// e-09 becomes e-9.
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string the way encoding/json does
// with HTML escaping on: <, > and & become \u003c, \u003e and \u0026,
// U+2028 and U+2029 are escaped, and each byte of invalid UTF-8
// becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
	d := decoder{b: b}
	r := d.result()
	if d.err != nil {
		return platform.Result{}, fmt.Errorf("report: decoding result: %w", d.err)
	}
	return r, nil
}

// decoder reads one result document. The first error sticks: it moves
// the read offset to the end, so every later read fails fast and each
// loop ends.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %w", d.off, err)
	}
	d.off = len(d.b)
}

// errSyntax marks input that is not a result document's layout.
var errSyntax = errors.New("malformed result document")

func (d *decoder) result() platform.Result {
	var r platform.Result
	d.expect('{')
	d.key("kind")
	r.Kind = d.kind()
	d.expect(',')
	d.key("workload")
	r.Workload = string(d.str())
	d.expect(',')
	d.key("ipc")
	r.IPC = d.float()
	d.expect(',')
	d.key("cycles")
	r.Cycles = sim.Tick(d.int())
	d.expect(',')
	d.key("insts")
	r.Insts = d.uint()
	d.expect(',')
	d.key("flash_read_gbps")
	r.FlashReadGBps = d.float()
	d.expect(',')
	d.key("flash_write_gbps")
	r.FlashWriteGBps = d.float()
	d.expect(',')
	if d.optionalKey("plane_writes") {
		r.PlaneWrites = d.planeWrites()
		d.expect(',')
	}
	d.key("l2_hit_rate")
	r.L2HitRate = d.float()
	d.expect(',')
	d.key("tlb_hit_rate")
	r.TLBHitRate = d.float()
	if d.next() == ',' {
		d.off++
		d.key("extra")
		r.Extra = d.extra()
	}
	d.expect('}')
	if d.next(); d.off < len(d.b) {
		d.fail(fmt.Errorf("%w: data after the document", errSyntax))
	}
	return r
}

// next skips whitespace and returns the next byte without consuming
// it, or 0 at the end of the input.
func (d *decoder) next() byte {
	b, i := d.b, d.off
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			d.off = i
			return c
		}
	}
	d.off = i
	return 0
}

// expect consumes c, the next byte after any whitespace.
func (d *decoder) expect(c byte) {
	if d.next() != c {
		d.fail(fmt.Errorf("%w: want %q", errSyntax, c))
		return
	}
	d.off++
}

// key consumes `"name":`, the name spelled without escapes.
func (d *decoder) key(name string) {
	if !d.optionalKey(name) {
		d.fail(fmt.Errorf("%w: want key %q", errSyntax, name))
	}
}

// optionalKey consumes `"name":` when it comes next and reports
// whether it did.
func (d *decoder) optionalKey(name string) bool {
	if d.next() != '"' {
		return false
	}
	rest := d.b[d.off+1:]
	if len(rest) <= len(name) || string(rest[:len(name)]) != name || rest[len(name)] != '"' {
		return false
	}
	d.off += len(name) + 2
	d.expect(':')
	return true
}

// kinds is the platform vocabulary DecodeResult resolves names in.
var kinds = platform.AllKinds()

// kind reads the platform name.
func (d *decoder) kind() platform.Kind {
	name := d.str()
	for _, k := range kinds {
		if k.String() == string(name) {
			return k
		}
	}
	if d.err == nil {
		_, err := platform.KindByName(string(name))
		d.fail(err)
	}
	return 0
}

// str reads a JSON string and returns its contents as encoding/json
// decodes them: escapes resolved, an unpaired surrogate escape and
// each byte of invalid UTF-8 replaced by U+FFFD. The result aliases
// the input when the string holds only printable ASCII without
// escapes.
func (d *decoder) str() []byte {
	d.expect('"')
	b := d.b
	for i := d.off; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := b[d.off:i]
			d.off = i + 1
			return s
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(i)
		}
	}
	d.fail(fmt.Errorf("%w: unterminated string", errSyntax))
	return nil
}

// unquote finishes a string whose first i-d.off bytes need no
// decoding.
func (d *decoder) unquote(i int) []byte {
	b := d.b
	out := append([]byte(nil), b[d.off:i]...)
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			d.off = i + 1
			return out
		case c < ' ':
			d.off = i
			d.fail(fmt.Errorf("%w: control byte %#x in a string", errSyntax, c))
			return nil
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		case c != '\\':
			out = append(out, c)
			i++
		case i+1 < len(b) && b[i+1] == 'u':
			r, ok := hex4(b[i+2:])
			if !ok {
				d.off = i
				d.fail(fmt.Errorf("%w: bad \\u escape", errSyntax))
				return nil
			}
			i += 6
			if utf16.IsSurrogate(r) {
				r2, ok := rune(-1), false
				if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
					r2, ok = hex4(b[i+2:])
				}
				if pair := utf16.DecodeRune(r, r2); ok && pair != utf8.RuneError {
					r = pair
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			esc := byte(0)
			if i+1 < len(b) {
				esc = b[i+1]
			}
			switch esc {
			case '"', '\\', '/':
			case 'b':
				esc = '\b'
			case 'f':
				esc = '\f'
			case 'n':
				esc = '\n'
			case 'r':
				esc = '\r'
			case 't':
				esc = '\t'
			default:
				d.off = i
				d.fail(fmt.Errorf("%w: bad escape in a string", errSyntax))
				return nil
			}
			out = append(out, esc)
			i += 2
		}
	}
	d.fail(fmt.Errorf("%w: unterminated string", errSyntax))
	return nil
}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	r, err := strconv.ParseUint(string(b[:4]), 16, 16)
	return rune(r), err == nil
}

// number reads one JSON number literal.
func (d *decoder) number() []byte {
	d.next()
	b, i, start := d.b, d.off, d.off
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		d.fail(fmt.Errorf("%w: want a number", errSyntax))
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.fail(fmt.Errorf("%w: want a digit after the decimal point", errSyntax))
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.fail(fmt.Errorf("%w: want a digit in the exponent", errSyntax))
			return nil
		}
	}
	d.off = i
	return b[start:i]
}

func (d *decoder) float() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail(err)
	}
	return f
}

func (d *decoder) int() int64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		d.fail(err)
	}
	return n
}

// uint reads an unsigned integer. A fraction or an exponent after the
// digits is left unread, so the next read fails on it.
func (d *decoder) uint() uint64 {
	d.next()
	b, i, start := d.b, d.off, d.off
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start || i-start > 1 && b[start] == '0':
		d.fail(fmt.Errorf("%w: want an unsigned integer", errSyntax))
		return 0
	case i-start > 19: // may have overflowed
		var err error
		if n, err = strconv.ParseUint(string(b[start:i]), 10, 64); err != nil {
			d.fail(err)
			return 0
		}
	}
	d.off = i
	return n
}

// planeWrites reads the non-empty "plane_writes" array. Its commas
// size the slice, so it is allocated once.
func (d *decoder) planeWrites() []uint64 {
	d.expect('[')
	rest := d.b[d.off:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]uint64, 0, bytes.Count(rest, []byte{','})+1)
	for {
		out = append(out, d.uint())
		if d.next() != ',' {
			break
		}
		d.off++
	}
	d.expect(']')
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
	d.expect('{')
	for {
		keys = append(keys, d.str()...)
		d.expect(':')
		entries = append(entries, entry{len(keys), d.float()})
		if d.next() != ',' {
			break
		}
		d.off++
	}
	d.expect('}')
	all := string(keys)
	out := make(map[string]float64, len(entries))
	start := 0
	for _, e := range entries {
		out[all[start:e.end]] = e.v
		start = e.end
	}
	return out
}
