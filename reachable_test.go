package attache_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachableAllowlist names the non-test declarations under internal/
// that no program reaches and that stay anyway, because a test in a
// *different* package needs them (an in-package test can hold its own
// helper). Ten entries at most; each says who the caller is.
var reachableAllowlist = map[string]string{
	"attache/internal/stats.Mean.N":       "dram's and memctrl's tests count the latency samples a channel and a controller took",
	"attache/internal/check.Oracle.Lines": "memctrl's TestCheckedTrafficClean proves the oracle's hooks are wired by it",
}

// TestInternalIsReachable holds non-test code to one rule: a program
// (any main under cmd/, examples/ or bench/), an init, or the public API
// of attache and attache/client reaches it. What only _test.go files
// call is test scaffolding and lives in a _test.go file.
func TestInternalIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	if len(reachableAllowlist) > 10 {
		t.Fatalf("allowlist holds %d symbols, the bound is 10", len(reachableAllowlist))
	}
	m := loadModule(t)
	reached := m.reach()

	var dead []string
	seen := map[string]bool{}
	for obj := range m.refs {
		if reached[obj] || !strings.HasPrefix(obj.Pkg().Path(), "attache/internal/") {
			continue
		}
		name := symbolName(obj)
		seen[name] = true
		if _, ok := reachableAllowlist[name]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s", m.fset.Position(obj.Pos()), name))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no program and no public entry point: delete it, or move it into the _test.go file that uses it", d)
	}
	for name := range reachableAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s is reachable (or gone): drop it", name)
		}
	}
}

// module is every non-test package of the repository plus bench/,
// type-checked, with what each package-level declaration and method
// refers to.
type module struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> parsed files
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
	// refs: declaration -> the declarations its source mentions.
	refs map[types.Object][]types.Object
}

func loadModule(t *testing.T) *module {
	// The source importer reads build.Default; without cgo it picks the
	// standard library's pure-Go files and needs no C toolchain.
	build.Default.CgoEnabled = false
	m := &module{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		refs: map[types.Object][]types.Object{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		// bench/ is a module of its own that replaces attache with this
		// tree: its programs are roots like any other, its tests too,
		// since this repository cannot edit them.
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") && dir != "bench" {
			return nil
		}
		// A file built for another architecture only (a fallback beside
		// an assembly stub) would redeclare what this one's declares.
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "attache"
		if dir != "." {
			ip += "/" + dir
		}
		m.files[ip] = append(m.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range m.files {
		if _, err := m.Import(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			m.collect(f)
		}
	}
	return m
}

// Import type-checks this tree's packages from the parsed files and
// leaves everything else to the standard library's source importer.
func (m *module) Import(path string) (*types.Package, error) {
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// collect records, for each top-level declaration of f, the package-
// level objects and methods of this module that its source mentions.
func (m *module) collect(f *ast.File) {
	mention := func(owner types.Object, n ast.Node) {
		if owner == nil || owner.Name() == "_" {
			return
		}
		m.refs[owner] = m.refs[owner] // a declaration that mentions nothing is still one
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := m.declared(m.info.Uses[id]); obj != nil && obj != owner {
					m.refs[owner] = append(m.refs[owner], obj)
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			mention(m.info.Defs[d.Name], d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					mention(m.info.Defs[s.Name], s)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						mention(m.info.Defs[name], s)
					}
				}
			}
		}
	}
}

// declared maps a used object to the declaration the scan tracks: a
// package-level object or a method of this module (the generic one, for
// a method of an instantiated type), or nil.
func (m *module) declared(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil || m.files[obj.Pkg().Path()] == nil {
		return nil
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if _, abstract := recv.Type().Underlying().(*types.Interface); abstract {
				return nil
			}
			return fn
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// reach walks refs from the roots: main and init everywhere, bench/'s
// tests, the exported API of attache and attache/client with every
// exported method of the types it names, and — once its receiver type is
// reached — any method whose name some interface declares, since a call
// through the interface names no concrete method.
func (m *module) reach() map[types.Object]bool {
	dispatched := map[string]bool{"Error": true}
	done := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(p *types.Package) {
		if done[p] {
			return
		}
		done[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						dispatched[it.Method(i).Name()] = true
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	for _, p := range m.pkgs {
		scan(p)
	}

	reached := map[types.Object]bool{}
	var visit func(types.Object)
	methods := func(tn *types.TypeName, every bool) {
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok || m.files[named.Obj().Pkg().Path()] == nil {
			return
		}
		for i := 0; i < named.Origin().NumMethods(); i++ {
			if fn := named.Origin().Method(i); dispatched[fn.Name()] || every && fn.Exported() {
				visit(fn)
			}
		}
	}
	visit = func(obj types.Object) {
		if reached[obj] {
			return
		}
		reached[obj] = true
		if tn, ok := obj.(*types.TypeName); ok {
			methods(tn, false)
		}
		for _, ref := range m.refs[obj] {
			visit(ref)
		}
	}
	for obj := range m.refs {
		path, name := obj.Pkg().Path(), obj.Name()
		fn, isFunc := obj.(*types.Func)
		free := isFunc && fn.Type().(*types.Signature).Recv() == nil
		switch {
		case free && (name == "main" && obj.Pkg().Name() == "main" || name == "init"),
			free && path == "attache/bench" && (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Fuzz")):
			visit(obj)
		case (path == "attache" || path == "attache/client") && obj.Exported() && obj.Parent() == obj.Pkg().Scope():
			visit(obj)
			if tn, ok := obj.(*types.TypeName); ok {
				methods(tn, true)
			}
		}
	}
	return reached
}

// symbolName renders a declaration as pkgpath.Name or pkgpath.Type.Method.
func symbolName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
