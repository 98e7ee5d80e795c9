package prioplus_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestRandOnlyFromSim is the seed-witness gate: outside internal/sim, no
// non-test Go file of the module names anything from math/rand but the
// *rand.Rand type. Every random stream is then built by a sim constructor:
// a run's, by its engine, which marks the run's seed witness that the cell
// memo trusts (exp.Memo); a constant-seeded one, by sim.NewRand. A source
// built anywhere else, or a draw from the global one, would read a seed
// the witness never saw.
func TestRandOnlyFromSim(t *testing.T) {
	sites, err := randSites(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		t.Errorf("%s outside internal/sim; build the stream with sim.Engine.Rand or LazyRand (a run's seed) or sim.NewRand (a constant)", s)
	}
}

// TestRandOnlyFromSimSelf runs the gate on a fixture holding each use it
// allows and each it flags.
func TestRandOnlyFromSimSelf(t *testing.T) {
	sites, err := randSites("testdata/randgate")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:12: rand.New",
		"internal/lib/lib.go:12: rand.NewSource",
		"internal/lib/lib.go:16: rand.Float64",
		"internal/lib/lib.go:19: mrand.New",
		"internal/lib/lib.go:19: mrand.NewPCG",
	}
	if !reflect.DeepEqual(sites, want) {
		t.Errorf("flagged %q, want %q", sites, want)
	}
}

// randSites lists, as "file:line: pkg.Name", every use of math/rand or
// math/rand/v2 other than the Rand type in the non-test Go files under
// root, leaving out internal/sim, testdata, hidden directories and nested
// modules (benchmark/ times the program and builds no simulation stream).
func randSites(root string) ([]string, error) {
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || rel == "internal/sim" ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		names := map[string]bool{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != "math/rand" && p != "math/rand/v2" {
				continue
			}
			name := "rand"
			if im.Name != nil {
				name = im.Name.Name
			}
			if name == "." || name == "_" {
				sites = append(sites, rel+":"+strconv.Itoa(fset.Position(im.Pos()).Line)+": "+name+" import of "+p)
				continue
			}
			names[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && names[id.Name] && sel.Sel.Name != "Rand" {
				sites = append(sites, rel+":"+strconv.Itoa(fset.Position(sel.Pos()).Line)+": "+id.Name+"."+sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	return sites, err
}
