package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Sink names one function whose arguments become content-addressed
// bytes.
type Sink struct {
	// PkgSuffix matches the defining package's import path.
	PkgSuffix string
	// Func is the function name.
	Func string
}

// CanonicalKeyConfig lists the content-address sinks to check.
type CanonicalKeyConfig struct {
	Sinks []Sink
}

// DefaultCanonicalKey returns the canonical-key analyzer bound to the
// byte-canonical encoders of this repository: the cell-key hasher
// every store entry, coalescing decision and campaign dedupe rides
// on, the result codec whose bytes the store persists, and the fleet's
// campaign-id hasher (a resumed campaign must derive the same id from
// the same spec on every machine).
func DefaultCanonicalKey() *Analyzer {
	return NewCanonicalKey(CanonicalKeyConfig{
		Sinks: []Sink{
			{PkgSuffix: "internal/cellkey", Func: "Key"},
			{PkgSuffix: "internal/report", Func: "EncodeResult"},
			{PkgSuffix: "internal/fleet", Func: "CampaignID"},
		},
	})
}

// NewCanonicalKey builds the canonical-key analyzer: every value
// passed (transitively, through exported fields) to a configured sink
// must encode to the same bytes on every run and every machine, or
// the content address it feeds stops naming its content. Flagged
// field shapes: interfaces (the dynamic type is not pinned by the
// schema), funcs and channels (not encodable at all), and maps whose
// keys encoding/json cannot sort deterministically (only string and
// integer keys marshal in sorted order; any other key type is
// iteration-ordered or unencodable). String- or integer-keyed maps
// with canonical value types pass: the sinks write those keys sorted
// (encoding/json does for the campaign-id hasher, and
// report.EncodeResult sorts Result.Extra's keys itself), so such maps
// stay byte-stable. The cell-key hasher writes its bytes itself, with
// internal/wire's encoding/json-exact writers and config.AppendJSON,
// whose field plan admits no map, interface or pointer at all.
func NewCanonicalKey(cfg CanonicalKeyConfig) *Analyzer {
	a := &Analyzer{
		Name: "canonicalkey",
		Doc: "forbid interface/func/chan fields and unsortable maps in types " +
			"passed to content-address sinks (cellkey.Key, report.EncodeResult)",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sink := sinkCalled(pass, call, cfg.Sinks)
				if sink == nil {
					return true
				}
				for i, arg := range call.Args {
					t := pass.TypesInfo.TypeOf(arg)
					if t == nil {
						continue
					}
					if path, why := findNonCanonical(t, nil, map[types.Type]bool{}); why != "" {
						pass.Reportf(arg.Pos(),
							"argument %d of %s.%s has type %s, which is not byte-canonical: %s%s",
							i+1, sink.PkgSuffix, sink.Func, types.TypeString(t, types.RelativeTo(pass.Pkg)),
							pathString(path), why)
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// sinkCalled resolves a call to one of the configured sinks.
func sinkCalled(pass *Pass, call *ast.CallExpr, sinks []Sink) *Sink {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	for i := range sinks {
		if fn.Name() == sinks[i].Func && pathMatches(fn.Pkg().Path(), []string{sinks[i].PkgSuffix}) {
			return &sinks[i]
		}
	}
	return nil
}

// findNonCanonical walks a type through exported struct fields,
// slices, arrays and pointers, returning the field path and reason of
// the first non-canonical shape. Unexported fields are skipped: the
// canonical encodings are JSON, which never marshals them.
func findNonCanonical(t types.Type, path []string, seen map[types.Type]bool) ([]string, string) {
	if seen[t] {
		return nil, ""
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return path, "unsafe.Pointer cannot be encoded"
		}
		return nil, ""
	case *types.Pointer:
		return findNonCanonical(u.Elem(), path, seen)
	case *types.Slice:
		return findNonCanonical(u.Elem(), path, seen)
	case *types.Array:
		return findNonCanonical(u.Elem(), path, seen)
	case *types.Interface:
		return path, "an interface's dynamic type is not pinned by the schema"
	case *types.Signature:
		return path, "a func cannot be encoded"
	case *types.Chan:
		return path, "a channel cannot be encoded"
	case *types.Map:
		if !sortableKey(u.Key()) {
			return path, fmt.Sprintf("map key type %s does not marshal in sorted order (only string and integer keys do)", u.Key())
		}
		return findNonCanonical(u.Elem(), path, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			if p, why := findNonCanonical(f.Type(), append(path, f.Name()), seen); why != "" {
				return p, why
			}
		}
		return nil, ""
	}
	return nil, ""
}

// sortableKey reports whether encoding/json marshals a map with this
// key type in deterministic sorted order: string or integer kinds.
func sortableKey(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsString|types.IsInteger) != 0
}

// pathString renders the offending field path for a diagnostic.
func pathString(path []string) string {
	if len(path) == 0 {
		return ""
	}
	out := "field "
	for i, p := range path {
		if i > 0 {
			out += "."
		}
		out += p
	}
	return out + ": "
}
