// Config audit: every leaf of config.Config enters every cell key, so a
// field that no model reads makes configurations that simulate
// identically into different cells, each simulated and stored on its
// own. This test fails for any field name of config.Config's structs
// that no selector names in the non-test Go under internal/, cmd/ and
// examples/, internal/config and internal/experiments excepted: a
// field only a figure reads is read by no model, and belongs with that
// figure.
//
// It matches by name, not by type: a field whose name another type
// shares can go unread without failing it. DRAM.Kind, say, would pass
// on the strength of platform.Result.Kind.
package zng_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"zng/internal/config"
)

func TestEveryConfigFieldIsRead(t *testing.T) {
	fields := map[string]string{} // field name -> a path from Config
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, prefix string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if _, ok := fields[f.Name]; !ok {
				fields[f.Name] = prefix + f.Name
			}
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, prefix+f.Name+".")
			}
		}
	}
	walk(reflect.TypeFor[config.Config](), "")

	named := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && (path == filepath.Join("internal", "config") || path == filepath.Join("internal", "experiments") || d.Name() == "testdata"):
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n, ok := n.(*ast.SelectorExpr); ok {
					named[n.Sel.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(fields)) {
		if !named[name] {
			t.Errorf("config field %s is read nowhere outside internal/config and internal/experiments; a model should read it, or it should go", fields[name])
		}
	}
}
