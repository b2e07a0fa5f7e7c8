package config

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"zng/internal/wire"
)

// The configuration travels as JSON in every remote POST /v1/run
// request and is hashed into every cell key, so its codec sits on the
// serving path. It is a plan of Config's fields, built once from the
// reflect.Type: a new field needs no codec edit, and a field the codec
// cannot carry panics when the plan is built.

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
}

// plan is Config's codec plan.
var plan = sync.OnceValue(func() *structPlan { return buildPlan(reflect.TypeFor[Config](), "") })

// buildPlan plans the struct type t. It panics on what encoding/json
// would encode differently from the plan, such as a tag, an
// unexported or embedded field, or two names equal under case folding,
// and on a kind the codec does not carry.
func buildPlan(t reflect.Type, path string) *structPlan {
	p := &structPlan{path: path, fields: make([]field, t.NumField())}
	for i := range p.fields {
		sf := t.Field(i)
		name := path + sf.Name
		if !sf.IsExported() || sf.Anonymous || sf.Tag != "" {
			panic(fmt.Sprintf("config: field %s is unexported, embedded or tagged, which the JSON codec does not support", name))
		}
		f := field{name: sf.Name, key: `"` + sf.Name + `":`, index: i, kind: sf.Type.Kind()}
		if i > 0 {
			f.key = "," + f.key
		}
		switch f.kind {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Float64:
		case reflect.Struct:
			f.sub = buildPlan(sf.Type, name+".")
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

// AppendJSON appends c as json.Marshal writes it: every field in
// declaration order, keyed by its Go name. A NaN or infinite float has
// no JSON form and is an error, as with json.Marshal.
func (c *Config) AppendJSON(b []byte) ([]byte, error) {
	return plan().append(b, reflect.ValueOf(c).Elem())
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
// recorded in d; an unknown field's names it by its path from Config.
func (c *Config) DecodeJSON(d *wire.Decoder) {
	plan().decode(d, reflect.ValueOf(c).Elem())
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
			n := d.Int()
			if fv.OverflowInt(n) {
				d.Fail(fmt.Errorf("config: %s%s: %d overflows %s", p.path, f.name, n, fv.Type()))
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
