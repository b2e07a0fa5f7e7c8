// Package wire reads and writes JSON the way encoding/json does,
// without reflection, for the codecs on the serving path: the result
// document (internal/report), the configuration (internal/config),
// the POST /v1/run request and its reply (internal/remote) and the
// cell key (internal/cellkey).
//
// A Decoder walks one JSON value held whole in memory. Its strings
// decode as encoding/json decodes them, its numbers follow the JSON
// grammar, and it nests at most as deep as encoding/json allows, so a
// codec built on it can accept exactly what encoding/json accepts.
// The writers, AppendString and AppendFloat, write encoding/json's
// bytes. The package imports only the standard library.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// ErrSyntax marks input that is not JSON, or not the JSON a codec
// reads.
var ErrSyntax = errors.New("malformed JSON")

// maxDepth is encoding/json's nesting limit: objects and arrays may
// nest 10,000 deep.
const maxDepth = 10000

// Decoder reads JSON tokens from one buffer. The zero Decoder reads an
// empty buffer; Reset points it at another.
//
// The first error sticks: it moves the read offset to the end, so
// every later read fails fast and each loop ends. Err reports it.
type Decoder struct {
	b     []byte
	off   int
	depth int // open objects and arrays
	err   error
}

// Reset points d at b and clears its state.
func (d *Decoder) Reset(b []byte) { *d = Decoder{b: b} }

// Err returns the first error, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err, with the offset it happened at, unless an error is
// already recorded, and ends the input.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %w", d.off, err)
	}
	d.off = len(d.b)
}

// syntax fails with ErrSyntax and what was wanted instead.
func (d *Decoder) syntax(want string) {
	d.Fail(fmt.Errorf("%w: want %s", ErrSyntax, want))
}

// Next skips whitespace and returns the next byte without consuming
// it, or 0 at the end of the input.
func (d *Decoder) Next() byte {
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

// Expect consumes c, the next byte after any whitespace.
func (d *Decoder) Expect(c byte) {
	if d.Next() != c {
		d.syntax(strconv.QuoteRune(rune(c)))
		return
	}
	d.off++
}

// Consume consumes c when it is the next byte after any whitespace,
// and reports whether it was.
func (d *Decoder) Consume(c byte) bool {
	if d.Next() != c {
		return false
	}
	d.off++
	return true
}

// Rest returns the unread input. It aliases the input.
func (d *Decoder) Rest() []byte { return d.b[d.off:] }

// End requires that only whitespace is left.
func (d *Decoder) End() {
	if d.Next(); d.off < len(d.b) {
		d.syntax("no data after the value")
	}
}

// ConsumeKey consumes `"name":` when the key comes next spelled
// exactly, without escapes, and reports whether it did.
func (d *Decoder) ConsumeKey(name string) bool {
	if d.Next() != '"' {
		return false
	}
	rest := d.b[d.off+1:]
	if len(rest) <= len(name) || string(rest[:len(name)]) != name || rest[len(name)] != '"' {
		return false
	}
	d.off += len(name) + 2
	d.Expect(':')
	return true
}

// push enters an object or array: it consumes the opening byte.
func (d *Decoder) push() {
	d.off++
	if d.depth++; d.depth > maxDepth {
		d.syntax("nesting no deeper than 10000")
	}
}

// Object consumes the '{' that opens an object and reports whether a
// member follows. With Key and More it walks the members:
//
//	for more := d.Object(); more; more = d.More() {
//		key := d.Key()
//		// read or skip the value
//	}
func (d *Decoder) Object() bool {
	if d.Next() != '{' {
		d.syntax("an object")
		return false
	}
	d.push()
	if d.Consume('}') {
		d.depth--
		return false
	}
	return true
}

// Key reads a member's key and the ':' after it. The key is unescaped
// and aliases the input when it has no escapes.
func (d *Decoder) Key() []byte {
	k := d.Str()
	d.Expect(':')
	return k
}

// More ends a member: it consumes the ',' before the next one and
// returns true, or the '}' that closes the object and returns false.
func (d *Decoder) More() bool {
	switch d.Next() {
	case ',':
		d.off++
		return true
	case '}':
		d.off++
		d.depth--
	default:
		d.syntax("',' or '}'")
	}
	return false
}

// KeyIs reports whether an object key selects the field name the way
// encoding/json selects a struct field: exactly, else under Unicode
// case folding, so "flash" selects Flash and "ſcale" selects scale.
// For a struct whose names are pairwise distinct under folding the
// two steps select the same field as folding alone; the exact
// comparison is the fast path.
func KeyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// Null consumes a null literal when one comes next and reports whether
// it did.
func (d *Decoder) Null() bool {
	if d.Next() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// Bool reads true or false.
func (d *Decoder) Bool() bool {
	switch d.Next() {
	case 't':
		d.literal("true")
		return true
	case 'f':
		d.literal("false")
	default:
		d.syntax("true or false")
	}
	return false
}

// literal consumes lit, which comes next.
func (d *Decoder) literal(lit string) {
	if !bytes.HasPrefix(d.b[d.off:], []byte(lit)) {
		d.syntax(lit)
		return
	}
	d.off += len(lit)
}

// Str reads a JSON string and returns its contents as encoding/json
// decodes them: escapes resolved, an unpaired surrogate escape and
// each byte of invalid UTF-8 replaced by U+FFFD. The result aliases
// the input when the string holds only printable ASCII without
// escapes.
func (d *Decoder) Str() []byte {
	d.Expect('"')
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
	d.syntax("a terminated string")
	return nil
}

// unquote finishes a string whose first i-d.off bytes need no
// decoding.
func (d *Decoder) unquote(i int) []byte {
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
			d.syntax(fmt.Sprintf("no control byte %#x in a string", c))
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
				d.syntax("a \\u escape of four hex digits")
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
				d.syntax("a valid escape in a string")
				return nil
			}
			out = append(out, esc)
			i += 2
		}
	}
	d.syntax("a terminated string")
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

// Number reads one JSON number literal and returns its bytes.
func (d *Decoder) Number() []byte {
	d.Next()
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
		d.syntax("a number")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.syntax("a digit after the decimal point")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.syntax("a digit in the exponent")
			return nil
		}
	}
	d.off = i
	return b[start:i]
}

// Float reads a number as a float64. A number beyond float64's range
// is an error, as in encoding/json.
func (d *Decoder) Float() float64 {
	tok := d.Number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.Fail(err)
	}
	return f
}

// Int reads a number as an int64. A fraction, an exponent or a value
// beyond int64's range is an error, as in encoding/json.
func (d *Decoder) Int() int64 {
	tok := d.Number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		d.Fail(err)
	}
	return n
}

// Uint reads an unsigned integer. A fraction or an exponent after the
// digits is left unread, so the next read fails on it.
func (d *Decoder) Uint() uint64 {
	d.Next()
	b, i, start := d.b, d.off, d.off
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start || i-start > 1 && b[start] == '0':
		d.syntax("an unsigned integer")
		return 0
	case i-start > 19: // may have overflowed
		var err error
		if n, err = strconv.ParseUint(string(b[start:i]), 10, 64); err != nil {
			d.Fail(err)
			return 0
		}
	}
	d.off = i
	return n
}

// Skip reads one value of any type and discards it. It checks the
// value as encoding/json's scanner does.
func (d *Decoder) Skip() {
	switch d.Next() {
	case '{':
		for more := d.Object(); more; more = d.More() {
			d.Key()
			d.Skip()
		}
	case '[':
		d.push()
		if !d.Consume(']') {
			for {
				d.Skip()
				if !d.Consume(',') {
					break
				}
			}
			d.Expect(']')
		}
		d.depth--
	case '"':
		d.Str()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.Number()
	}
}

// Value reads one value of any type, as Skip does, and returns its
// bytes. They alias the input.
func (d *Decoder) Value() []byte {
	d.Next()
	start := d.off
	d.Skip()
	if d.err != nil {
		return nil
	}
	return d.b[start:d.off]
}

// maxPresize bounds the buffer ReadAll makes before any data arrives.
// It covers every body on the serving path: a POST /v1/run request is
// about 2 KB and a run reply with a 1,024-plane document about 8 KB.
const maxPresize = 64 << 10

// ReadAll reads r to EOF into one buffer. size is the expected length,
// such as a Content-Length, or -1 when unknown. A right guess of up to
// 64 KiB makes the buffer the only allocation; past that the buffer
// starts at 64 KiB and grows as data arrives, so a false length cannot
// make it allocate more than that ahead of the data.
func ReadAll(r io.Reader, size int64) ([]byte, error) {
	n := 512
	if size >= 0 {
		n = int(min(size, maxPresize)) + 1 // room for the read that sees EOF
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// AppendFloat writes f as encoding/json does: the shortest decimal
// that reads back as f, in e-notation (with a one-digit exponent
// where it fits) below 1e-6 and from 1e21 on. A NaN or an infinity has
// no JSON form and panics: callers check first.
func AppendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("wire: unsupported value %v", f))
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

// AppendString writes s as a JSON string the way encoding/json does
// with HTML escaping on: <, > and & become \u003c, \u003e and \u0026,
// U+2028 and U+2029 are escaped, and each byte of invalid UTF-8
// becomes \ufffd.
func AppendString(b []byte, s string) []byte {
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
