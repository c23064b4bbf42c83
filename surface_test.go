package smappic_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surface type-checks the two modules from source. Module packages are
// checked here, once each, so that every reference lands in one object
// graph; everything else goes to the stdlib source importer.
type surface struct {
	t     *testing.T
	fset  *token.FileSet
	root  string // directory of module smappic; benchmark/ holds module smappic/benchmark, so one prefix maps both
	std   types.ImporterFrom
	files map[string]*ast.File      // parsed once, shared by a package and its test variant
	pkgs  map[string]*types.Package // non-test packages by import path
	used  map[token.Pos]bool        // declarations referenced from outside their own package's tests
}

func (s *surface) Import(path string) (*types.Package, error) { return s.ImportFrom(path, "", 0) }

func (s *surface) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != "smappic" && !strings.HasPrefix(path, "smappic/") {
		return s.std.ImportFrom(path, dir, mode)
	}
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	pdir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(path, "smappic")))
	bp, err := build.ImportDir(pdir, 0)
	if err != nil {
		return nil, err
	}
	p := s.check(path, pdir, bp.GoFiles)
	s.pkgs[path] = p
	return p, nil
}

// check type-checks one set of files as a package and books every reference
// it makes. A reference from a _test.go file to a declaration in its own
// directory is the one kind that does not count.
func (s *surface) check(path, dir string, names []string) *types.Package {
	var files []*ast.File
	for _, name := range names {
		full := filepath.Join(dir, name)
		f := s.files[full]
		if f == nil {
			var err error
			f, err = parser.ParseFile(s.fset, full, nil, parser.SkipObjectResolution)
			if err != nil {
				s.t.Fatal(err)
			}
			s.files[full] = f
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s, Error: func(err error) { s.t.Errorf("type-check: %v", err) }}
	pkg, _ := conf.Check(path, s.fset, files, info)
	for id, obj := range info.Uses {
		if !obj.Pos().IsValid() {
			continue
		}
		from, decl := s.fset.File(id.Pos()).Name(), s.fset.File(obj.Pos()).Name()
		if strings.HasSuffix(from, "_test.go") && filepath.Dir(from) == filepath.Dir(decl) {
			continue
		}
		s.used[obj.Pos()] = true
	}
	return pkg
}

// TestEveryInternalExportHasACaller keeps internal/'s surface equal to what
// something calls: it type-checks every package of the root module and of
// benchmark/ (tests included) and fails on any package-level function, type,
// constant, variable or method, exported or not, declared in a non-test file
// under internal/ that nothing outside its own package's _test.go files
// references. Struct fields are out of scope (JSON and gob need them), and a
// method is exempt when its receiver implements an interface — one declared
// in the two modules or one of error, fmt.Stringer, json.Marshaler,
// io.Reader, io.Writer, http.Handler — that lists it.
//
// No identifier is exempt by name: code that only its own unit tests run is
// not kept, whatever part of the paper it models. On a failure, delete the
// identifier (and re-run: its callees may follow); if own-package tests need
// it as a probe, move it to that package's export_test.go.
func TestEveryInternalExportHasACaller(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The source importer reads build.Default; without cgo it picks the
	// pure-Go files of net and os/user and never runs a C toolchain.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })

	fset := token.NewFileSet()
	s := &surface{
		t:     t,
		fset:  fset,
		root:  root,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		files: map[string]*ast.File{},
		pkgs:  map[string]*types.Package{},
		used:  map[token.Pos]bool{},
	}

	// Every directory with Go files is a package to check: its non-test files
	// through the importer (so a package is checked once however many import
	// it), then the same files with the in-package tests, then the external
	// test package. External tests see the non-test package, which is exact
	// while no directory has both an export_test.go and a package x_test.
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, empty := err.(*build.NoGoError); empty {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		path := "smappic"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if len(bp.GoFiles) > 0 {
			if _, err := s.Import(path); err != nil {
				return err
			}
		}
		if len(bp.TestGoFiles) > 0 {
			s.check(path, dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...))
		}
		if len(bp.XTestGoFiles) > 0 {
			s.check(path+"_test", dir, bp.XTestGoFiles)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The interfaces a method may be reached through without being named.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, n := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"io", "Reader"}, {"io", "Writer"}, {"net/http", "Handler"}} {
		p, err := s.std.ImportFrom(n[0], root, 0)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(n[1]).Type().Underlying().(*types.Interface))
	}
	for _, p := range s.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	viaInterface := func(recv types.Type, m *types.Func) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var orphans []string
	report := func(obj types.Object, kind, name string) {
		if s.used[obj.Pos()] {
			return
		}
		pos := fset.Position(obj.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		orphans = append(orphans, fmt.Sprintf("%s:%d: %s %s", filepath.ToSlash(rel), pos.Line, kind, name))
	}
	internal := "smappic/internal/"
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			qual := p.Name() + "." + name
			kind := "type"
			switch obj.(type) {
			case *types.Func:
				kind = "func"
			case *types.Const:
				kind = "const"
			case *types.Var:
				kind = "var"
			}
			report(obj, kind, qual)
			if named, ok := obj.Type().(*types.Named); ok && kind == "type" {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !viaInterface(named, m) {
						report(m, "method", qual+"."+m.Name())
					}
				}
			}
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("%d identifiers under internal/ have no caller outside their own package's tests:\n%s",
			len(orphans), strings.Join(orphans, "\n"))
	}
}
