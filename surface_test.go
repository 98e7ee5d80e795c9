package prioplus_bench

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lets an exported identifier under internal/ through the
// surface gate without a production reader (or, for a field, writer). Each
// entry says why the Go idiom cannot move it into an export_test.go file.
var surfaceAllow = map[string]string{
	"netsim.Switch.Route":   "read by topo's reference-route oracle and fault's reroute test, which live in other packages",
	"transport.Sender.SRTT": "sampled by cc's Swift convergence test (package cc_test) from a running flow",
}

// surfaceLocalMax is the ratchet on the module's local identifiers
// (surfaceStat): TestSurface fails when their count rises above it, and
// when it falls, until the number here is lowered to match.
const surfaceLocalMax = 258

// TestSurface is the surface gate: every exported identifier declared in a
// non-test file under internal/ must be read by some non-test file of the
// module (cmd/, examples/, internal/ itself, or benchmark/layers under the
// layerbench tag), and every exported struct field there must be written by
// one. A seam only tests use belongs in the package's export_test.go. The
// count of local identifiers may only fall (surfaceLocalMax).
func TestSurface(t *testing.T) {
	finds, stats, err := surface(".")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, f := range finds {
		flagged[f.Name] = true
		if _, ok := surfaceAllow[f.Name]; !ok {
			t.Errorf("%s: %s has %s; delete it, or move it to the package's export_test.go", f.Pos, f.Name, f.Why)
		}
	}
	for name := range surfaceAllow {
		if !flagged[name] {
			t.Errorf("surfaceAllow lists %s, which the gate no longer flags; drop the entry", name)
		}
	}
	if len(surfaceAllow) > 8 {
		t.Errorf("surfaceAllow has %d entries; the budget is 8", len(surfaceAllow))
	}
	var exported, local int
	for _, s := range stats {
		exported, local = exported+s.Exported, local+s.Local
	}
	switch {
	case local > surfaceLocalMax:
		t.Errorf("%d local identifiers, over the ratchet's %d: name the new ones from another package's production code, unexport them, or delete them", local, surfaceLocalMax)
	case local < surfaceLocalMax:
		t.Errorf("%d local identifiers, under the ratchet's %d: lower surfaceLocalMax to %d", local, surfaceLocalMax, local)
	}
	if testing.Verbose() {
		t.Logf("%-10s %6s %8s %6s", "package", "loc", "exported", "local")
		for _, s := range stats {
			t.Logf("%-10s %6d %8d %6d", s.Pkg, s.LOC, s.Exported, s.Local)
		}
		t.Logf("%-10s %6s %8d %6d", "total", "", exported, local)
		t.Logf("local: exported, but nothing outside the package names it (see surfaceStat)")
		t.Logf("allowlist: %d of 8", len(surfaceAllow))
	}
}

// TestSurfaceSelf runs the gate on a fixture module holding one case of every
// use the gate credits and one exported func that only a test calls: exactly
// that func must be flagged.
func TestSurfaceSelf(t *testing.T) {
	finds, _, err := surface("testdata/surface")
	if err != nil {
		t.Fatal(err)
	}
	want := []surfaceFinding{{
		Pos:  "internal/lib/lib.go:68",
		Name: "lib.OnlyTests",
		Why:  "no production reader",
	}}
	if !reflect.DeepEqual(finds, want) {
		t.Errorf("flagged %+v, want %+v", finds, want)
	}
}

type surfaceFinding struct{ Pos, Name, Why string }

// surfaceStat is one package's row in TestSurface's verbose table. Local
// counts the exported identifiers no non-test file of another package names
// (a method an interface reaches and a JSON-tagged field cross anyway);
// their module total is ratcheted (surfaceLocalMax).
type surfaceStat struct {
	Pkg                  string
	LOC, Exported, Local int
}

// surface type-checks every package of the module rooted at root (its own
// go.mod names it, and a nested module such as benchmark/ counts as part of
// it) from source and returns what the gate flags under internal/, sorted by
// position, with per-package non-test LOC and exported-identifier counts, and
// how many of those no non-test file outside the package names.
func surface(root string) ([]surfaceFinding, []surfaceStat, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	ctxt := build.Default
	ctxt.BuildTags = []string{"layerbench"}
	fset := token.NewFileSet()
	l := &surfaceLoader{
		root: root, module: module, ctxt: &ctxt, fset: fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*types.Package{},
		fileOf:   map[*token.File]string{},
		internal: map[*types.Package]int{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		ip := module
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		_, err = l.Import(ip)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	finds, stats := l.check()
	return finds, stats, nil
}

type surfaceLoader struct {
	root, module string
	ctxt         *build.Context
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	files        []*ast.File
	fileOf       map[*token.File]string // package path of each loaded file
	internal     map[*types.Package]int // non-test LOC of each package under internal/
	info         *types.Info
}

// Import type-checks a package of the module from its non-test files, once,
// and hands every other path to the standard library's source importer.
func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	loc := 0
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), src, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		l.fileOf[l.fset.File(f.Pos())] = path
		loc += strings.Count(string(src), "\n")
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	if strings.HasPrefix(path, l.module+"/internal/") {
		l.internal[p] = loc
	}
	return p, nil
}

func (l *surfaceLoader) check() ([]surfaceFinding, []surfaceStat) {
	read := map[types.Object]bool{}
	written := map[types.Object]bool{}
	crossed := map[types.Object]bool{} // named by a file of another package
	// Every interface whose methods production code calls, and every one
	// the standard library declares: a method that satisfies one is used.
	var ifaces []*types.Interface
	for id, obj := range l.info.Uses {
		obj = surfaceOrigin(obj)
		read[obj] = true
		if obj.Pkg() != nil && l.fileOf[l.fset.File(id.Pos())] != obj.Pkg().Path() {
			crossed[obj] = true
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var stdIfaces func(p *types.Package)
	stdIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := l.pkgs[p.Path()]; !ours {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			stdIfaces(q)
		}
	}
	for _, p := range l.pkgs {
		stdIfaces(p)
	}

	// Writes: assignment, ++/--, &x.F, a pointer-receiver method called on
	// x.F (atomic fields), and composite literals, keyed or positional.
	var markWrite func(e ast.Expr)
	markWrite = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if s := l.info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					written[surfaceOrigin(s.Obj())] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	iotaZero := map[types.Object]bool{}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					markWrite(n.Key)
					if n.Value != nil {
						markWrite(n.Value)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markWrite(n.X)
				}
			case *ast.SelectorExpr:
				if s := l.info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
					if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						markWrite(n.X)
					}
				}
			case *ast.CompositeLit:
				st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							written[surfaceOrigin(l.info.Uses[id])] = true
						}
					} else if i < st.NumFields() {
						written[st.Field(i)] = true
						read[st.Field(i)] = true
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.CONST || len(n.Specs) == 0 || !surfaceHasIota(n.Specs[0]) {
					return true
				}
				for _, spec := range n.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if c, ok := l.info.Defs[id].(*types.Const); ok && constant.Sign(c.Val()) == 0 {
							iotaZero[c] = true
						}
					}
				}
			}
			return true
		})
	}

	var finds []surfaceFinding
	var stats []surfaceStat
	flag := func(obj types.Object, name, why string) {
		pos := l.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(l.root, pos.Filename)
		finds = append(finds, surfaceFinding{
			Pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line),
			Name: obj.Pkg().Name() + "." + name,
			Why:  why,
		})
	}
	credited := func(m *types.Func, named types.Type) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}
	for p, loc := range l.internal {
		st := surfaceStat{Pkg: strings.TrimPrefix(p.Path(), l.module+"/internal/"), LOC: loc}
		// count tallies an exported identifier, and it as local unless a
		// non-test file of another package names it or it crosses anyway:
		// a method reached through an interface, a field encoding/json reads.
		count := func(obj types.Object, crosses bool) {
			st.Exported++
			if !crossed[obj] && !crosses {
				st.Local++
			}
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			count(obj, false)
			if !read[obj] && !iotaZero[obj] {
				flag(obj, name, "no production reader")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				count(m, crossed[m] || credited(m, named))
				if !read[m] && !credited(m, named) {
					flag(m, name+"."+m.Name(), "no production reader")
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						count(m, false)
						if !read[m] {
							flag(m, name+"."+m.Name(), "no production reader")
						}
					}
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					fld := u.Field(i)
					if !fld.Exported() || fld.Embedded() {
						continue
					}
					tagged := strings.Contains(u.Tag(i), `json:"`)
					count(fld, tagged)
					if tagged {
						continue
					}
					if !read[fld] {
						flag(fld, name+"."+fld.Name(), "no production reader")
					} else if !written[fld] {
						flag(fld, name+"."+fld.Name(), "no production writer")
					}
				}
			}
		}
		stats = append(stats, st)
	}
	sort.Slice(finds, func(i, j int) bool { return finds[i].Pos < finds[j].Pos })
	sort.Slice(stats, func(i, j int) bool { return stats[i].Pkg < stats[j].Pkg })
	return finds, stats
}

// surfaceOrigin maps a field or method of an instantiated generic type to its
// declaration.
func surfaceOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func surfaceHasIota(spec ast.Spec) bool {
	found := false
	for _, v := range spec.(*ast.ValueSpec).Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}
