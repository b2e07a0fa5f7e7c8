package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// RegistryConfig scopes the registry-completeness analyzer to the two
// registries this repository keeps: the figure registry in
// internal/experiments and the scenario registry in internal/workload.
type RegistryConfig struct {
	// ExperimentsPkg is the import-path suffix of the figure-driver
	// package.
	ExperimentsPkg string
	// TablePkg/TableType name the result type that marks a function
	// as a figure driver (first result *stats.Table).
	TablePkg  string
	TableType string
	// RegistryFunc is the function whose body declares the registry
	// entries; EntryType is their struct type, RunField the field that
	// names each entry's driver and IDField its string id.
	RegistryFunc string
	EntryType    string
	RunField     string
	IDField      string

	// ScenariosPkg is the import-path suffix of the scenario package;
	// ScenariosFunc the registry root; MixType the scenario value
	// type. Every exported function returning MixType must be in the
	// static call graph rooted at ScenariosFunc, unless listed in
	// ScenarioExempt (lookups and ad-hoc parsers, which intentionally
	// live outside the registry).
	ScenariosPkg   string
	ScenariosFunc  string
	MixType        string
	ScenarioExempt []string
}

// DefaultRegistry returns the registry analyzer bound to this
// repository's two registries.
func DefaultRegistry() *Analyzer {
	return NewRegistry(RegistryConfig{
		ExperimentsPkg: "internal/experiments",
		TablePkg:       "internal/stats",
		TableType:      "Table",
		RegistryFunc:   "Registry",
		EntryType:      "Figure",
		RunField:       "Run",
		IDField:        "ID",

		ScenariosPkg:   "internal/workload",
		ScenariosFunc:  "Scenarios",
		MixType:        "Mix",
		ScenarioExempt: []string{"MixByName", "ParseApps"},
	})
}

// NewRegistry builds the registry-completeness analyzer: in the
// experiments package it asserts a bijection between figure drivers
// (exported functions whose first result is *stats.Table) and the Run
// fields of the entries Registry() declares — every entry's Run names
// a driver (not a closure, an unexported helper or any other value),
// every driver is registered exactly once, every ID is unique. In the
// workload package it asserts that every exported Mix-returning
// constructor is reachable from Scenarios() in the static call graph,
// so a new scenario family cannot be added without entering the
// registry vocabulary.
func NewRegistry(cfg RegistryConfig) *Analyzer {
	a := &Analyzer{
		Name: "registry",
		Doc: "cross-check figure drivers against Registry() entries and scenario " +
			"constructors against Scenarios() reachability",
	}
	a.Run = func(pass *Pass) error {
		if pathMatches(pass.Pkg.Path(), []string{cfg.ExperimentsPkg}) {
			checkFigureRegistry(pass, cfg)
		}
		if pathMatches(pass.Pkg.Path(), []string{cfg.ScenariosPkg}) {
			checkScenarioReachability(pass, cfg)
		}
		return nil
	}
	return a
}

// checkFigureRegistry enforces the driver <-> registry bijection.
func checkFigureRegistry(pass *Pass, cfg RegistryConfig) {
	drivers := map[string]*ast.FuncDecl{}
	var registryFn *ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if fd.Name.Name == cfg.RegistryFunc {
				registryFn = fd
			}
			if fd.Name.IsExported() && firstResultIsTablePtr(pass, fd, cfg) {
				drivers[fd.Name.Name] = fd
			}
		}
	}
	if registryFn == nil {
		pass.Reportf(pass.Files[0].Pos(), "registry function %s not found in %s",
			cfg.RegistryFunc, pass.Pkg.Path())
		return
	}
	if len(drivers) == 0 {
		pass.Reportf(registryFn.Pos(),
			"no exported *%s.%s drivers found in %s: driver detection is broken",
			cfg.TablePkg, cfg.TableType, pass.Pkg.Path())
		return
	}

	registered := map[string][]ast.Expr{}
	ids := map[string][]ast.Expr{}
	ast.Inspect(registryFn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		named := baseNamed(pass.TypesInfo.TypeOf(lit))
		if named == nil || named.Obj().Name() != cfg.EntryType || named.Obj().Pkg() != pass.Pkg {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case cfg.RunField:
				if name, ok := runDriver(pass, kv.Value, drivers); ok {
					registered[name] = append(registered[name], kv.Value)
				}
			case cfg.IDField:
				if tv := pass.TypesInfo.Types[kv.Value]; tv.Value != nil && tv.Value.Kind() == constant.String {
					id := constant.StringVal(tv.Value)
					ids[id] = append(ids[id], kv.Value)
				}
			}
		}
		return false
	})

	for name, fd := range drivers {
		switch n := len(registered[name]); {
		case n == 0:
			pass.Reportf(fd.Name.Pos(),
				"driver %s returns *%s.%s but has no %s() entry: register it or unexport it",
				name, "stats", cfg.TableType, cfg.RegistryFunc)
		case n > 1:
			pass.Reportf(registered[name][1].Pos(),
				"driver %s is registered %d times", name, n)
		}
	}
	for id, exprs := range ids {
		if len(exprs) > 1 {
			pass.Reportf(exprs[1].Pos(), "figure id %q registered %d times", id, len(exprs))
		}
	}
}

// runDriver resolves a registry entry's Run value to the driver it
// names, reporting a value that names none: a closure, an unexported
// helper, or anything but a package-level driver of this package. The
// driver's name is then the figure's only spelling of it.
func runDriver(pass *Pass, e ast.Expr, drivers map[string]*ast.FuncDecl) (string, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		pass.Reportf(e.Pos(), "registry entry's Run is a closure: name the figure's exported driver")
		return "", false
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[v].(*types.Func); ok && fn.Pkg() == pass.Pkg {
			if drivers[fn.Name()] != nil {
				return fn.Name(), true
			}
			if !fn.Exported() {
				pass.Reportf(e.Pos(), "registry entry's Run names unexported %s: export it as the figure's driver", fn.Name())
				return "", false
			}
		}
	}
	pass.Reportf(e.Pos(), "registry entry's Run is not a driver of this package: name an exported function returning the table")
	return "", false
}

// firstResultIsTablePtr reports whether fd's first result is a
// pointer to the configured table type.
func firstResultIsTablePtr(pass *Pass, fd *ast.FuncDecl, cfg RegistryConfig) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Type.Results.List[0].Type)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != cfg.TableType || named.Obj().Pkg() == nil {
		return false
	}
	return pathMatches(named.Obj().Pkg().Path(), []string{cfg.TablePkg})
}

// checkScenarioReachability flags exported Mix-returning constructors
// the registry root cannot reach.
func checkScenarioReachability(pass *Pass, cfg RegistryConfig) {
	// calls maps each package-level function to the package-level
	// functions its body (including nested literals) calls.
	calls := map[string][]string{}
	constructors := map[string]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() == pass.Pkg {
						calls[name] = append(calls[name], fn.Name())
					}
				}
				return true
			})
			if fd.Name.IsExported() && returnsMix(pass, fd, cfg) {
				constructors[name] = fd
			}
		}
	}

	reachable := map[string]bool{}
	var walk func(string)
	walk = func(name string) {
		if reachable[name] {
			return
		}
		reachable[name] = true
		for _, callee := range calls[name] {
			walk(callee)
		}
	}
	walk(cfg.ScenariosFunc)

	exempt := map[string]bool{}
	for _, e := range cfg.ScenarioExempt {
		exempt[e] = true
	}
	for name, fd := range constructors {
		if !reachable[name] && !exempt[name] {
			pass.Reportf(fd.Name.Pos(),
				"scenario constructor %s is not reachable from %s(): its mixes are invisible to the registry (zngsim -list, campaign specs)",
				name, cfg.ScenariosFunc)
		}
	}
}

// returnsMix reports whether any of fd's results is the configured
// Mix type (Mix, []Mix, or alongside an error).
func returnsMix(pass *Pass, fd *ast.FuncDecl, cfg RegistryConfig) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, res := range fd.Type.Results.List {
		t := pass.TypesInfo.TypeOf(res.Type)
		if sl, ok := t.(*types.Slice); ok {
			t = sl.Elem()
		}
		named, ok := t.(*types.Named)
		if ok && named.Obj().Name() == cfg.MixType && named.Obj().Pkg() == pass.Pkg {
			return true
		}
	}
	return false
}
