package main_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// typedProgram is every non-test package of internal/, cmd/, examples/ and
// benchmark/, type-checked once against one another. The standard library
// comes from go/importer's source mode, which needs no export data and no
// download.
type typedProgram struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*typedPkg // by import path
	order []*typedPkg          // dependencies first
}

type typedPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	// tests are the package's test builds: the package with its in-package
	// _test.go files, then its external test package. Only the
	// config-field check reads them.
	tests             []testBuild
	inTests, extTests []*ast.File
}

type testBuild struct {
	files []*ast.File
	info  *types.Info
}

// typed is the program every type-aware check reads, loaded by the first
// test that needs it: one load per test binary.
var typed struct {
	once sync.Once
	p    *typedProgram
	err  error
}

// loadTyped returns the type-checked program and its tests.
func loadTyped(t *testing.T) *typedProgram {
	t.Helper()
	typed.once.Do(func() { typed.p, typed.err = loadProgram() })
	if typed.err != nil {
		t.Fatal(typed.err)
	}
	return typed.p
}

// loadProgram type-checks the program and its tests. Import paths map to
// directories by dropping the module prefix "planet/"; benchmark/ is module
// planet/benchmark, which maps the same way.
func loadProgram() (*typedProgram, error) {
	fset := token.NewFileSet()
	p := &typedProgram{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*typedPkg),
	}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			return p.check("planet/" + filepath.ToSlash(path))
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(p.pkgs))
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := p.checkTests(p.pkgs[path]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// check type-checks the package at path after its in-repo imports, and
// parses its test files for checkTests.
func (p *typedProgram) check(path string) error {
	if _, done := p.pkgs[path]; done {
		return nil
	}
	dir := strings.TrimPrefix(path, "planet/")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	tp := &typedPkg{path: path}
	p.pkgs[path] = tp
	var inTests, extTests []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			tp.files = append(tp.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTests = append(extTests, f)
		default:
			inTests = append(inTests, f)
		}
	}
	if err := p.checkImports(path, tp.files); err != nil {
		return err
	}
	if len(tp.files) > 0 {
		if tp.pkg, tp.info, err = p.typeCheck(path, tp.files); err != nil {
			return err
		}
		p.order = append(p.order, tp)
	}
	tp.inTests, tp.extTests = inTests, extTests
	return nil
}

// checkTests type-checks a package's test builds: the package with its
// in-package _test.go files, and its external test package. Tests may
// import packages that import the package itself, so this runs once every
// package is checked. Those importers are not rebuilt against the test
// build, as go test would, so a test's use of an export_test.go name from
// another file is a type error here; test builds tolerate type errors,
// which leave only such expressions untyped.
func (p *typedProgram) checkTests(tp *typedPkg) error {
	if err := p.checkImports(tp.path, slices.Concat(tp.inTests, tp.extTests)); err != nil {
		return err
	}
	if len(tp.inTests) > 0 {
		files := slices.Concat(tp.files, tp.inTests)
		tp.tests = append(tp.tests, testBuild{files, p.typeCheckTest(tp.path, files)})
	}
	if len(tp.extTests) > 0 {
		tp.tests = append(tp.tests, testBuild{tp.extTests, p.typeCheckTest(tp.path+"_test", tp.extTests)})
	}
	return nil
}

func (p *typedProgram) checkImports(path string, files []*ast.File) error {
	for _, f := range files {
		for _, imp := range f.Imports {
			if dep := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(dep, "planet/") && dep != path {
				if err := p.check(dep); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
}

func (p *typedProgram) typeCheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := newInfo()
	pkg, err := (&types.Config{Importer: p}).Check(path, p.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	return pkg, info, nil
}

func (p *typedProgram) typeCheckTest(path string, files []*ast.File) *types.Info {
	info := newInfo()
	conf := types.Config{Importer: p, Error: func(error) {}}
	conf.Check(path, p.fset, files, info) // errors tolerated, see checkTests
	return info
}

// Import implements types.Importer.
func (p *typedProgram) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, ".", 0)
}

// ImportFrom implements types.ImporterFrom: in-repo packages are the ones
// check built, everything else comes from source.
func (p *typedProgram) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if tp := p.pkgs[path]; tp != nil && tp.pkg != nil {
		return tp.pkg, nil
	}
	if strings.HasPrefix(path, "planet/") {
		return nil, fmt.Errorf("%s imported before it was checked", path)
	}
	return p.std.ImportFrom(path, dir, mode)
}

// deadMethods returns every exported method declared outside benchmark/
// that no non-test file uses: neither calls it or takes its value, nor
// converts its receiver type to an interface type the program names that
// has a method of the same name.
func (p *typedProgram) deadMethods() map[*types.Func]string {
	used := make(map[*types.Func]bool)
	ifaces := make(map[*types.Interface]bool)
	declared := make(map[*types.Func]string)
	for _, tp := range p.order {
		for id, obj := range tp.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				used[o.Origin()] = true
			case *types.TypeName:
				if it, ok := o.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
			_ = id
		}
		for _, tv := range tp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		if strings.HasPrefix(tp.path, "planet/benchmark") {
			continue
		}
		for _, f := range tp.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
					declared[tp.info.Defs[fd.Name].(*types.Func)] = p.fset.Position(fd.Pos()).String()
				}
			}
		}
	}
	dead := make(map[*types.Func]string)
	for fn, site := range declared {
		if used[fn] || satisfiesNamed(fn, ifaces) {
			continue
		}
		dead[fn] = site
	}
	return dead
}

// satisfiesNamed reports whether fn's receiver type implements, with fn,
// an interface the program names.
func satisfiesNamed(fn *types.Func, ifaces map[*types.Interface]bool) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// unwrittenConfigFields returns every field of an exported struct type
// named *Config, declared outside benchmark/, that no file writes, tests
// included: no composite literal sets it, no assignment or increment
// targets it, and nothing takes its address (flag.Var and friends write
// through that). A field is known by its declaration's position, which is
// the same in a package and in its test build.
func (p *typedProgram) unwrittenConfigFields() map[*types.Var]string {
	written := make(map[token.Pos]bool)
	fieldOf := func(info *types.Info, e ast.Expr) token.Pos {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return v.Origin().Pos()
			}
		}
		return token.NoPos
	}
	scan := func(info *types.Info, files []*ast.File) {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					st, ok := typeUnder(info.Types[x].Type).(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								written[v.Origin().Pos()] = true
							}
						} else if i < st.NumFields() {
							written[st.Field(i).Origin().Pos()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						written[fieldOf(info, lhs)] = true
					}
				case *ast.IncDecStmt:
					written[fieldOf(info, x.X)] = true
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						written[fieldOf(info, x.X)] = true
					}
				}
				return true
			})
		}
	}
	for _, tp := range p.pkgs {
		if tp.info != nil {
			scan(tp.info, tp.files)
		}
		for _, tb := range tp.tests {
			scan(tb.info, tb.files)
		}
	}
	unwritten := make(map[*types.Var]string)
	for _, tp := range p.order {
		if strings.HasPrefix(tp.path, "planet/benchmark") {
			continue
		}
		scope := tp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fv := st.Field(i); fv.Exported() && !written[fv.Pos()] {
					unwritten[fv] = p.fset.Position(fv.Pos()).String()
				}
			}
		}
	}
	return unwritten
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem().Underlying()
	}
	return t.Underlying()
}

// typedFindings runs both type-aware checks and returns their findings,
// sorted. A finding is allowlisted in deadExportAllow under its
// package-qualified key (pkg.Type.Method, pkg.Type.Field) or, for a method,
// under the keys the name scan uses (Type.Method, Method).
func typedFindings(t *testing.T) []string {
	p := loadTyped(t)
	var out []string
	for fn, site := range p.deadMethods() {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		typ := recv.(*types.Named).Obj().Name()
		key := fn.Pkg().Name() + "." + typ + "." + fn.Name()
		if deadExportAllow[key] == "" && deadExportAllow[typ+"."+fn.Name()] == "" && deadExportAllow[fn.Name()] == "" {
			out = append(out, site+": method "+key+" is exported, but no non-test code uses it")
		}
	}
	for fv, site := range p.unwrittenConfigFields() {
		key := fv.Pkg().Name() + "." + fieldOwner(fv) + "." + fv.Name()
		if deadExportAllow[key] == "" {
			out = append(out, site+": config field "+key+" is never set, not even by a test")
		}
	}
	sort.Strings(out)
	return out
}

// fieldOwner names the *Config type that declares fv.
func fieldOwner(fv *types.Var) string {
	scope := fv.Pkg().Scope()
	for _, name := range scope.Names() {
		if st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == fv {
					return name
				}
			}
		}
	}
	return "?"
}
