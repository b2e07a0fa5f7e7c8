package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// accepts reports whether Value reads b as one JSON value with only
// whitespace after it.
func accepts(b []byte) bool {
	var d Decoder
	d.Reset(b)
	d.Value()
	d.End()
	return d.Err() == nil
}

// TestValueMatchesValid: Value accepts exactly the documents json.Valid
// accepts, nesting limit included.
func TestValueMatchesValid(t *testing.T) {
	cases := []string{
		`0`, `-0`, `-0.5e+3`, `1E9`, `01`, `-`, `1.`, `.5`, `+1`, `1e`, `1e+`, `NaN`, `Infinity`,
		`true`, `false`, `null`, `tru`, `nul`, `nulll`, `True`,
		`""`, `"a\"b"`, `"é😀"`, `"\ud800"`, `"\x"`, `"\u12"`, `"\u12G4"`, "\"\x01\"", "\"\xff\"", `"abc`,
		`[]`, `[1,2,3]`, `[1,]`, `[,1]`, `[1 2]`, `[`, `]`,
		`{}`, `{"a":1}`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{1:2}`, `{"a":1 "b":2}`, `{"a":{"b":[null,true,{"c":"d"}]}}`,
		" \t\r\n{ \"a\" : [ 1 , 2 ] } \n", "\f1", `1 2`, `{} x`, ``, ` `,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		strings.Repeat(`{"a":`, 10000) + "1" + strings.Repeat("}", 10000),
		strings.Repeat(`{"a":`, 10001) + "1" + strings.Repeat("}", 10001),
	}
	for _, in := range cases {
		if got, want := accepts([]byte(in)), json.Valid([]byte(in)); got != want {
			t.Errorf("%.40q: accepted %v, json.Valid %v", in, got, want)
		}
	}
}

// TestObjectWalk: Object, Key and More visit every member, keys
// unescaped, and Value returns each value's bytes.
func TestObjectWalk(t *testing.T) {
	var d Decoder
	d.Reset([]byte(` { "a" : [1, {"x":2}] , "bc" : "s", "d":null } `))
	var got []string
	for more := d.Object(); more; more = d.More() {
		got = append(got, string(d.Key())+"="+string(d.Value()))
	}
	d.End()
	if want := `a=[1, {"x":2}] bc="s" d=null`; strings.Join(got, " ") != want || d.Err() != nil {
		t.Errorf("walked %q (%v), want %q", got, d.Err(), want)
	}
}

// TestKeyIs: a key selects a field name exactly or under case folding.
func TestKeyIs(t *testing.T) {
	for _, tc := range []struct {
		key, name string
		want      bool
	}{
		{"scale", "scale", true}, {"SCALE", "scale", true}, {"ſcale", "scale", true},
		{"Kind", "kind", true}, {"scales", "scale", false}, {"", "scale", false}, {"İd", "id", false},
	} {
		if got := KeyIs([]byte(tc.key), tc.name); got != tc.want {
			t.Errorf("KeyIs(%q, %q) = %v, want %v", tc.key, tc.name, got, tc.want)
		}
	}
}

// TestReadAll reads whole bodies whatever the size hint says, in one
// allocation when the hint is right.
func TestReadAll(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 300)
	for _, hint := range []int64{-1, 0, 10, int64(len(body)), int64(len(body)) + 7, 1 << 40} {
		got, err := ReadAll(iotest.OneByteReader(bytes.NewReader(body)), hint)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("hint %d: read %d bytes, %v", hint, len(got), err)
		}
	}
	if _, err := ReadAll(iotest.ErrReader(io.ErrUnexpectedEOF), -1); err != io.ErrUnexpectedEOF {
		t.Errorf("a failing reader gave %v", err)
	}
	r := bytes.NewReader(body)
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset(body)
		if _, err := ReadAll(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("a read with the right hint made %.0f allocations, want 1", allocs)
	}
}
