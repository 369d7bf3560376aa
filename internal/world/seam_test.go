package world_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// builders are the calls that assemble a simulated world. Outside the
// packages that define them and this one, nothing may call them: a
// second private builder would be one more place a clock, a delivery log
// or a metrics registry has to be threaded through.
var builders = map[string]map[string]bool{
	"repro/internal/netsim": {"New": true},
	"repro/internal/core":   {"NewRuntime": true},
}

// seamExempt are the module-relative directories allowed to call the
// builders: world itself, their own packages, and bench/, which keeps
// its own harness until it moves onto world.
var seamExempt = []string{"internal/world", "internal/netsim", "internal/core", "bench"}

// TestWorldIsTheOnlyBuilder parses every non-test Go file of the module
// and fails on a builder call outside seamExempt, resolving import
// aliases so a renamed import cannot hide one.
func TestWorldIsTheOnlyBuilder(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			if name := e.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			for _, dir := range seamExempt {
				if rel == dir {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, call := range builderCalls(f) {
			pos := fset.Position(call.Pos())
			t.Errorf("%s:%d: %s called outside internal/world; build the world with world.New", rel, pos.Line, render(call))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d files from %s: the walk is not seeing the module", files, root)
	}
}

// builderCalls returns the calls in f of a builder, through whatever
// name f imports the builder's package under.
func builderCalls(f *ast.File) []*ast.CallExpr {
	local := map[string]map[string]bool{} // import name -> builder funcs
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		funcs, ok := builders[path]
		if !ok {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = funcs
	}
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && local[pkg.Name][sel.Sel.Name] {
				calls = append(calls, call)
			}
		}
		return true
	})
	return calls
}

func render(call *ast.CallExpr) string {
	sel := call.Fun.(*ast.SelectorExpr)
	return sel.X.(*ast.Ident).Name + "." + sel.Sel.Name
}

// TestSeamGuardFindsCalls keeps the guard honest: it must flag a direct
// call and an aliased one, and ignore a reference that is not a call.
func TestSeamGuardFindsCalls(t *testing.T) {
	src := `package p

import (
	"repro/internal/core"
	ns "repro/internal/netsim"
)

var alias = ns.New

func f() {
	net := ns.New(ns.WithSeed(1))
	_ = core.NewRuntime(net, core.NewRegistry())
	_ = alias
}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, call := range builderCalls(f) {
		got = append(got, render(call))
	}
	if strings.Join(got, ",") != "ns.New,core.NewRuntime" {
		t.Fatalf("guard found %v, want [ns.New core.NewRuntime]", got)
	}
}
