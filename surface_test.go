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
	boxed []flow                    // concrete values converted to an interface
	cast  []flow                    // interfaces an interface value is asserted to
}

// flow is one site where a type meets an interface: a value of a concrete
// type converted to an interface (boxed), or an interface value asserted to
// an interface type (cast).
type flow struct {
	typ  types.Type // the concrete type (boxed) or the asserted interface (cast)
	file string     // where it happens
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
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: s, Error: func(err error) { s.t.Errorf("type-check: %v", err) }}
	pkg, _ := conf.Check(path, s.fset, files, info)
	for id, obj := range info.Uses {
		if obj.Pos().IsValid() && s.counts(s.fset.File(id.Pos()).Name(), obj) {
			s.used[obj.Pos()] = true
		}
	}
	for _, f := range files {
		s.flows(f, info)
	}
	return pkg
}

// counts reports whether a reference from file reaches obj: every reference
// does but one from a _test.go file to a declaration in its own directory.
func (s *surface) counts(file string, obj types.Object) bool {
	decl := s.fset.File(obj.Pos()).Name()
	return !strings.HasSuffix(file, "_test.go") || filepath.Dir(file) != filepath.Dir(decl)
}

// reach books, as used, the methods of concrete type t that interface it
// lists, when the conversion in file counts for them.
func (s *surface) reach(t types.Type, it *types.Interface, file string) {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil && obj.Pos().IsValid() && s.counts(file, obj) {
			s.used[obj.Pos()] = true
		}
	}
}

// flows books every value of a concrete type that f converts to an
// interface, reaching the methods the interface lists, and every interface
// f asserts an interface value to. A conversion is implicit wherever a
// value meets a slot of interface type: an assignment or declaration, a
// call's argument (append's included), a return, a composite literal's
// element, a channel send; or explicit, I(x).
func (s *surface) flows(f *ast.File, info *types.Info) {
	file := s.fset.File(f.Pos()).Name()
	into := func(from, to types.Type) {
		if tup, ok := from.(*types.Tuple); ok {
			if res, ok := to.(*types.Tuple); ok && res.Len() == tup.Len() {
				for i := 0; i < tup.Len(); i++ {
					s.flowInto(tup.At(i).Type(), res.At(i).Type(), file)
				}
			}
			return
		}
		s.flowInto(from, to, file)
	}
	typeOf := func(e ast.Expr) types.Type {
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				return obj.Type()
			}
		}
		return info.Types[e].Type
	}
	// many pairs values with their slots; a lone call answering several
	// slots is a tuple.
	many := func(values []ast.Expr, slots []types.Type) {
		if len(values) == 1 && len(slots) > 1 {
			into(typeOf(values[0]), types.NewTuple(vars(slots)...))
			return
		}
		for i, v := range values {
			if i < len(slots) {
				into(typeOf(v), slots[i])
			}
		}
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			slots := make([]types.Type, len(n.Lhs))
			for i, l := range n.Lhs {
				slots[i] = typeOf(l)
			}
			many(n.Rhs, slots)
		case *ast.ValueSpec:
			if n.Type != nil {
				slots := make([]types.Type, len(n.Names))
				for i := range slots {
					slots[i] = info.Types[n.Type].Type
				}
				many(n.Values, slots)
			}
		case *ast.CallExpr:
			fun := info.Types[n.Fun]
			if fun.IsType() {
				if len(n.Args) == 1 {
					into(typeOf(n.Args[0]), fun.Type)
				}
				return true
			}
			sig, ok := fun.Type.(*types.Signature)
			if !ok {
				return true
			}
			var slots []types.Type
			for i := 0; i < sig.Params().Len(); i++ {
				slots = append(slots, sig.Params().At(i).Type())
			}
			if sig.Variadic() && !n.Ellipsis.IsValid() {
				elem := slots[len(slots)-1].(*types.Slice).Elem()
				slots = slots[:len(slots)-1]
				for len(slots) < len(n.Args) {
					slots = append(slots, elem)
				}
			}
			many(n.Args, slots)
		case *ast.ReturnStmt:
			var sig *types.Signature
			for i := len(stack) - 1; i >= 0 && sig == nil; i-- {
				switch fn := stack[i].(type) {
				case *ast.FuncLit:
					sig, _ = info.Types[fn].Type.(*types.Signature)
				case *ast.FuncDecl:
					sig = info.Defs[fn.Name].Type().(*types.Signature)
				}
			}
			if sig != nil {
				var slots []types.Type
				for i := 0; i < sig.Results().Len(); i++ {
					slots = append(slots, sig.Results().At(i).Type())
				}
				many(n.Results, slots)
			}
		case *ast.CompositeLit:
			lit := info.Types[n].Type
			if lit == nil {
				return true
			}
			if p, ok := lit.Underlying().(*types.Pointer); ok {
				lit = p.Elem()
			}
			for i, e := range n.Elts {
				var key ast.Expr
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					key, e = kv.Key, kv.Value
				}
				switch u := lit.Underlying().(type) {
				case *types.Struct:
					if key != nil {
						for j := 0; j < u.NumFields(); j++ {
							if u.Field(j).Name() == key.(*ast.Ident).Name {
								into(typeOf(e), u.Field(j).Type())
							}
						}
					} else if i < u.NumFields() {
						into(typeOf(e), u.Field(i).Type())
					}
				case *types.Slice:
					into(typeOf(e), u.Elem())
				case *types.Array:
					into(typeOf(e), u.Elem())
				case *types.Map:
					if key != nil {
						into(typeOf(key), u.Key())
					}
					into(typeOf(e), u.Elem())
				}
			}
		case *ast.SendStmt:
			if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
				into(typeOf(n.Value), ch.Elem())
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil && types.IsInterface(info.Types[n.Type].Type) {
				s.cast = append(s.cast, flow{info.Types[n.Type].Type, file})
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if t := info.Types[e].Type; t != nil && types.IsInterface(t) {
						s.cast = append(s.cast, flow{t, file})
					}
				}
			}
		}
		return true
	})
}

// flowInto books one conversion of a from value into a slot of type to.
func (s *surface) flowInto(from, to types.Type, file string) {
	if from == nil || to == nil || types.IsInterface(from) {
		return
	}
	if _, isParam := to.(*types.TypeParam); isParam {
		return
	}
	if it, ok := to.Underlying().(*types.Interface); ok {
		s.boxed = append(s.boxed, flow{from, file})
		s.reach(from, it, file)
	}
}

func vars(ts []types.Type) []*types.Var {
	vs := make([]*types.Var, len(ts))
	for i, t := range ts {
		vs[i] = types.NewVar(token.NoPos, nil, "", t)
	}
	return vs
}

// TestEveryInternalExportHasACaller keeps internal/'s surface equal to what
// something calls: it type-checks every package of the root module and of
// benchmark/ (tests included) and fails on any package-level function, type,
// constant, variable or method, exported or not, declared in a non-test file
// under internal/ that nothing outside its own package's _test.go files
// references. Struct fields are out of scope (JSON and gob need them). A
// method is also reached through an interface that lists it when a value of
// its type converts to that interface outside its package's own tests, or
// when its receiver implements one of error, fmt.Stringer, json.Marshaler,
// io.Reader, io.Writer, http.Handler (the standard library finds those by
// itself). Merely satisfying an interface reaches nothing.
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

	// An interface value asserted to another interface reaches, of every
	// type boxed anywhere, the methods the asserted interface lists.
	for _, c := range s.cast {
		it := c.typ.Underlying().(*types.Interface)
		for _, b := range s.boxed {
			if types.Implements(b.typ, it) {
				s.reach(b.typ, it, b.file)
				s.reach(b.typ, it, c.file)
			}
		}
	}
	// The standard library reaches these by reflection or by its own
	// assertions on values it was handed as any, which no conversion in
	// the two modules shows: a method they list counts as reached when its
	// receiver implements them.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, n := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"io", "Reader"}, {"io", "Writer"}, {"net/http", "Handler"}} {
		p, err := s.std.ImportFrom(n[0], root, 0)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(n[1]).Type().Underlying().(*types.Interface))
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
