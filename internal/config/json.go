package config

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"zng/internal/wire"
)

// The configuration travels as JSON in every remote POST /v1/run
// request and is hashed into every cell key, so its codec sits on the
// serving path. It is a plan of Config's fields, built once from the
// reflect.Type: a new field needs no codec edit, and a field the codec
// cannot carry panics when the plan is built. The plan also holds each
// numeric field's declared range, which Validate checks.

// structPlan is the codec plan of one struct type.
type structPlan struct {
	path   string // of the struct from Config, "" or ending in "."
	fields []field
}

// field is one struct field of a plan.
type field struct {
	name  string // the Go name, which is its JSON key
	key   string // `"name":`, after a comma unless it is the first field
	index int
	kind  reflect.Kind
	sub   *structPlan // of a struct field

	// The declared range of a numeric field: lo to hi, powers of two
	// only if pow2.
	lo, hi float64
	pow2   bool
}

// plan is Config's codec plan. It is built when the package
// initialises, so neither a simulation nor a request pays for it.
var plan = buildPlan(reflect.TypeFor[Config](), "")

// buildPlan plans the struct type t. It panics on what encoding/json
// would encode differently from the plan, such as a tag other than a
// range, an unexported or embedded field, or two names equal under
// case folding, on a kind the codec does not carry, and on a numeric
// field without a well-formed range or another field with one.
func buildPlan(t reflect.Type, path string) *structPlan {
	p := &structPlan{path: path, fields: make([]field, t.NumField())}
	for i := range p.fields {
		sf := t.Field(i)
		name := path + sf.Name
		rng := sf.Tag.Get("range")
		if !sf.IsExported() || sf.Anonymous || strings.TrimSuffix(strings.TrimPrefix(string(sf.Tag), `range:"`), `"`) != rng {
			panic(fmt.Sprintf("config: field %s is unexported, embedded or tagged other than with a range, which the JSON codec does not support", name))
		}
		f := field{name: sf.Name, key: `"` + sf.Name + `":`, index: i, kind: sf.Type.Kind()}
		if i > 0 {
			f.key = "," + f.key
		}
		switch f.kind {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Float64:
			f.parseRange(name, rng)
		case reflect.Struct:
			f.sub = buildPlan(sf.Type, name+".")
			fallthrough
		case reflect.Bool:
			if rng != "" {
				panic(fmt.Sprintf("config: field %s has a range but is not numeric", name))
			}
		default:
			panic(fmt.Sprintf("config: field %s has kind %s, which the JSON codec does not support", name, f.kind))
		}
		for _, g := range p.fields[:i] {
			if strings.EqualFold(g.name, f.name) {
				panic(fmt.Sprintf("config: fields %s%s and %s match the same JSON keys", path, g.name, name))
			}
		}
		p.fields[i] = f
	}
	return p
}

// parseRange reads the range tag rng of the numeric field named name.
func (f *field) parseRange(name, rng string) {
	lo, rest, _ := strings.Cut(rng, ",")
	hi, flag, _ := strings.Cut(rest, ",")
	f.pow2 = flag == "pow2" && f.kind != reflect.Float64
	var errLo, errHi error
	f.lo, errLo = bound(lo)
	f.hi, errHi = bound(hi)
	if errLo != nil || errHi != nil || !(f.lo <= f.hi) || flag != "" && !f.pow2 {
		panic(fmt.Sprintf("config: numeric field %s has range %q, want \"lo,hi\" or, for an integer, \"lo,hi,pow2\"", name, rng))
	}
}

// bound reads one bound of a range tag: a number or a namedBounds name.
func bound(s string) (float64, error) {
	if x, ok := namedBounds[s]; ok {
		return x, nil
	}
	return strconv.ParseFloat(s, 64)
}

// check reports the first numeric field of v outside its range.
func (p *structPlan) check(v reflect.Value) error {
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		switch f.kind {
		case reflect.Bool:
		case reflect.Struct:
			if err := f.sub.check(fv); err != nil {
				return err
			}
		case reflect.Float64:
			if x := fv.Float(); !(x >= f.lo && x <= f.hi) {
				return fmt.Errorf("config: %s%s %v, want %s", p.path, f.name, x, f.want())
			}
		default: // an integer
			if n := fv.Int(); !(float64(n) >= f.lo && float64(n) <= f.hi) || f.pow2 && n&(n-1) != 0 {
				return fmt.Errorf("config: %s%s %d, want %s", p.path, f.name, n, f.want())
			}
		}
	}
	return nil
}

// want describes the field's range for an error.
func (f *field) want() string {
	w := "[" + strconv.FormatFloat(f.lo, 'f', -1, 64) + ", " + strconv.FormatFloat(f.hi, 'f', -1, 64) + "]"
	if f.pow2 {
		return "a power of two in " + w
	}
	return w
}

// AppendJSON appends c as json.Marshal writes it: every field in
// declaration order, keyed by its Go name. A NaN or infinite float has
// no JSON form and is an error, as with json.Marshal.
func (c *Config) AppendJSON(b []byte) ([]byte, error) {
	return plan.append(b, reflect.ValueOf(c).Elem())
}

func (p *structPlan) append(b []byte, v reflect.Value) ([]byte, error) {
	b = append(b, '{')
	for i := range p.fields {
		f := &p.fields[i]
		b = append(b, f.key...)
		fv := v.Field(f.index)
		switch f.kind {
		case reflect.Bool:
			b = strconv.AppendBool(b, fv.Bool())
		case reflect.Float64:
			x := fv.Float()
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return b, fmt.Errorf("config: %s%s is %v, which has no JSON form", p.path, f.name, x)
			}
			b = wire.AppendFloat(b, x)
		case reflect.Struct:
			var err error
			if b, err = f.sub.append(b, fv); err != nil {
				return b, err
			}
		default: // an integer
			b = strconv.AppendInt(b, fv.Int(), 10)
		}
	}
	return append(b, '}'), nil
}

// DecodeJSON reads the value that comes next in d over c, as
// json.Decoder with DisallowUnknownFields decodes into an existing
// Config:
//   - a key selects a field by its Go name, exactly or else under
//     case folding;
//   - an absent field, and a field given null, keeps its value;
//   - a repeated key applies again;
//   - an unknown key, at any depth, is an error, as is a value of the
//     wrong type, an integer with a fraction, an exponent or beyond the
//     field's range, and a float beyond float64's range.
//
// A null in place of the object leaves c unchanged. An error is
// recorded in d; one about an unknown field or an integer names the
// field by its path from Config.
func (c *Config) DecodeJSON(d *wire.Decoder) {
	plan.decode(d, reflect.ValueOf(c).Elem())
}

func (p *structPlan) decode(d *wire.Decoder, v reflect.Value) {
	if d.Null() {
		return
	}
	next := 0 // keys usually come in declaration order
	for more := d.Object(); more; more = d.More() {
		key := d.Key()
		f := p.lookup(key, next)
		if f == nil {
			d.Fail(fmt.Errorf("config: unknown field %q", p.path+string(key)))
			return
		}
		next = f.index + 1
		if d.Null() {
			continue
		}
		fv := v.Field(f.index)
		switch f.kind {
		case reflect.Struct:
			f.sub.decode(d, fv)
		case reflect.Bool:
			fv.SetBool(d.Bool())
		case reflect.Float64:
			fv.SetFloat(d.Float())
		default: // an integer
			// Parsed here, not by d.Int, so that an error names the field.
			n, err := strconv.ParseInt(string(d.Number()), 10, 64)
			if err == nil && fv.OverflowInt(n) {
				err = fmt.Errorf("%d overflows %s", n, fv.Type())
			}
			if err != nil {
				d.Fail(fmt.Errorf("config: %s%s: %w", p.path, f.name, err))
			}
			fv.SetInt(n)
		}
	}
}

// lookup finds the field key selects, trying the field at hint first.
func (p *structPlan) lookup(key []byte, hint int) *field {
	if hint < len(p.fields) && string(key) == p.fields[hint].name {
		return &p.fields[hint]
	}
	for i := range p.fields {
		if wire.KeyIs(key, p.fields[i].name) {
			return &p.fields[i]
		}
	}
	return nil
}
