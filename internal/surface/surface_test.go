// Package surface holds the product-surface check: product code in
// internal/ keeps only what a product path uses. It type-checks the
// non-test files of the main module and of the benchmark module and
// applies two rules:
//
//  1. An exported identifier declared in internal/ has a reference
//     outside _test.go files, in either module.
//  2. An unexported struct field declared in internal/ is read
//     somewhere, not only written.
//
// A method that satisfies an interface declared in the program or in a
// package it imports counts as used, since a call through the interface
// leaves no reference to the method itself. The few names that only
// tests call on purpose are listed in allowed, each with its reason.
package surface

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// maxAllowed bounds the allowlist: a longer one is a second surface to
// audit.
const maxAllowed = 10

// allowed names the exported identifiers that only tests call and that
// stay product code anyway, keyed as the check prints them.
var allowed = map[string]string{
	"epc.Memory.Tamper":              "fault hook: the hostile host flips ciphertext in EPC memory",
	"orderly.ReplaySeed":             "fault hook: replays a printed counterexample seed",
	"persist.CrashPoints":            "fault hook: lists the crash points a crash-matrix test arms",
	"persist.Injector.Disarm":        "fault hook: clears an armed crash point",
	"fabric.Fabric.PauseReplication": "fault hook: a host that stalls the replication stream",
	"graphchi.ReferencePageRank":     "reference implementation the engine's ranks are compared against",
	"shim.DirFS.Close":               "API for callers that own a DirFS: releases its open file handles",
	"classmodel.Env.CallStatic":      "method-body API: a static call (§5's program model); no demo program has a static callee",
	"classmodel.Env.Trusted":         "method-body API: which side of the boundary the body runs on",
}

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -json` with args in dir, env added to the
// environment. With -deps, dependencies come before their importers.
func goList(t *testing.T, dir string, env []string, args ...string) []listedPackage {
	t.Helper()
	args = append([]string{"list", "-json=ImportPath,Dir,GoFiles,Export,Standard,Error"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// moduleRoot walks up from the working directory to the main module's
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}

// program is every non-test file of both modules, type-checked from
// source, with standard-library packages imported from export data.
type program struct {
	fset  *token.FileSet
	files map[*ast.File]*types.Package
	info  *types.Info
	pkgs  map[string]*types.Package
}

func (p *program) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("package %s not loaded", path)
}

func load(t *testing.T, root string) *program {
	t.Helper()
	main := goList(t, root, nil, "-deps", "./...")
	// The benchmark is its own module, built outside any workspace.
	bench := goList(t, filepath.Join(root, "benchmark"), []string{"GOFLAGS=", "GOWORK=off"}, "-deps", "./...")

	prog := &program{
		fset:  token.NewFileSet(),
		files: map[*ast.File]*types.Package{},
		pkgs:  map[string]*types.Package{"unsafe": types.Unsafe},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
	}
	// Export data is asked for the standard library only: the two
	// modules are type-checked from source, so nothing of theirs needs
	// compiling here.
	var std []string
	for _, p := range append(main, bench...) {
		if p.Standard && p.ImportPath != "unsafe" {
			std = append(std, p.ImportPath)
		}
	}
	exports := map[string]string{}
	for _, p := range goList(t, root, nil, append([]string{"-export"}, std...)...) {
		exports[p.ImportPath] = p.Export
	}
	stdlib := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := exports[path]; ok && file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	for _, p := range append(main, bench...) {
		if _, done := prog.pkgs[p.ImportPath]; done {
			continue
		}
		if p.Standard {
			pkg, err := stdlib.Import(p.ImportPath)
			if err != nil {
				t.Fatal(err)
			}
			prog.pkgs[p.ImportPath] = pkg
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: prog}
		pkg, err := conf.Check(p.ImportPath, prog.fset, files, prog.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		prog.pkgs[p.ImportPath] = pkg
		for _, f := range files {
			prog.files[f] = pkg
		}
	}
	return prog
}

// origin maps a member of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

// reads returns the fields the program reads. A selector reads its
// field unless it is the target of an assignment or an increment; a
// promoted selector reads every embedded field on its path; a struct
// used as a map key is read by the key comparison.
func (p *program) reads() map[types.Object]bool {
	read := map[types.Object]bool{}
	written := map[*ast.SelectorExpr]bool{}
	for f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := s.X.(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
			return true
		})
	}
	for sel, s := range p.info.Selections {
		typ, path := s.Recv(), s.Index()
		for i, idx := range path {
			last := i == len(path)-1
			if last && s.Kind() != types.FieldVal {
				break // the method a promoted selector calls
			}
			st, ok := deref(typ).Underlying().(*types.Struct)
			if !ok {
				break
			}
			field := st.Field(idx)
			if !last || !written[sel] {
				read[origin(field)] = true
			}
			typ = field.Type()
		}
	}
	for _, tv := range p.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			if st, ok := m.Key().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					read[origin(st.Field(i))] = true
				}
			}
		}
	}
	return read
}

func deref(t types.Type) types.Type {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// errorsInterfaces declares the interfaces package errors asserts inside
// its function bodies, which export data does not show.
const errorsInterfaces = `package errors
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

// interfaces returns every interface type declared in the program or in
// a package it imports, indexed by method name.
func (p *program) interfaces() (map[string][]*types.Interface, error) {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if iface, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
				}
			}
		}
	}
	for _, pkg := range p.pkgs {
		visit(pkg)
	}
	f, err := parser.ParseFile(p.fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		return nil, err
	}
	errs, err := new(types.Config).Check("errors", p.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	visit(errs)
	for _, tv := range p.info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
			}
		}
	}
	return byMethod, nil
}

// satisfies reports whether method m of a named type implements a
// method of some interface the type satisfies.
func satisfies(m *types.Func, byMethod map[string][]*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := deref(recv.Type()).(*types.Named)
	if !ok {
		return false
	}
	for _, iface := range byMethod[m.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// hit is one declaration that breaks a rule.
type hit struct {
	file string
	line int
	name string
}

func TestProductSurface(t *testing.T) {
	root := moduleRoot(t)
	prog := load(t, root)
	internal := filepath.Join(root, "internal") + string(filepath.Separator)

	used := map[types.Object]bool{}
	for _, obj := range prog.info.Uses {
		used[origin(obj)] = true
	}
	read := prog.reads()
	byMethod, err := prog.interfaces()
	if err != nil {
		t.Fatal(err)
	}
	if len(allowed) > maxAllowed {
		t.Errorf("%d allowlisted names, want at most %d", len(allowed), maxAllowed)
	}
	unused := map[string]bool{}
	for name := range allowed {
		unused[name] = true
	}

	var hits []hit
	for id, obj := range prog.info.Defs {
		if obj == nil || id.Name == "_" {
			continue
		}
		pos := prog.fset.Position(id.Pos())
		if !strings.HasPrefix(pos.Filename, internal) {
			continue
		}
		name := qualified(obj)
		if name == "" {
			continue
		}
		if _, ok := allowed[name]; ok {
			delete(unused, name)
			continue
		}
		switch {
		case obj.Exported():
			if used[obj] || read[obj] {
				continue
			}
			if f, ok := obj.(*types.Func); ok && satisfies(f, byMethod) {
				continue
			}
		case isField(obj):
			if read[obj] {
				continue
			}
		default:
			continue
		}
		rel, _ := filepath.Rel(root, pos.Filename)
		hits = append(hits, hit{rel, pos.Line, name})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].file != hits[j].file {
			return hits[i].file < hits[j].file
		}
		return hits[i].line < hits[j].line
	})
	for _, h := range hits {
		t.Errorf("%s:%d %s — delete it, move it to a _test.go file, or allowlist it with a reason", h.file, h.line, h.name)
	}
	for name := range unused {
		t.Errorf("allowlisted %s is not declared in internal/ or is no longer test-only; remove its entry", name)
	}
	if len(hits) > 0 {
		t.Logf("%d names", len(hits))
	}
}

func isField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// qualified names obj as pkg.Name, pkg.Type.Method or pkg.Type.field;
// it returns "" for locals, parameters and anything else the rules do
// not cover.
func qualified(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		sig := o.Type().(*types.Signature)
		if sig.Recv() == nil {
			return pkg.Name() + "." + o.Name()
		}
		if named, ok := deref(sig.Recv().Type()).(*types.Named); ok {
			return pkg.Name() + "." + named.Obj().Name() + "." + o.Name()
		}
		return "" // a method of an interface literal
	case *types.Var:
		if o.IsField() {
			return pkg.Name() + "." + fieldOwner(o) + o.Name()
		}
	}
	if obj.Parent() == pkg.Scope() {
		return pkg.Name() + "." + obj.Name()
	}
	return ""
}

// fieldOwner names the named struct type that declares field v,
// followed by a dot, or "" when the struct is anonymous.
func fieldOwner(v *types.Var) string {
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return name + "."
				}
			}
		}
	}
	return ""
}
