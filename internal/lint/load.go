package lint

import (
	"bytes"
	"encoding/json"
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
	"regexp"
	"strings"
)

// Package is one typechecked package ready for analysis. A test variant
// ("p [p.test]" in go list terms) carries the in-package test files in
// Files; external test packages ("p_test") load as their own Package
// with XTest set.
type Package struct {
	// Path is the effective import path (the path under test for a
	// test variant).
	Path string
	// Dir is the package's source directory.
	Dir string
	// Module is the path of the module the package belongs to.
	Module string
	// XTest marks an external (package p_test) test package.
	XTest bool
	// Files are the parsed syntax trees, test files included.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info is the typechecker's resolution tables for Files.
	Info *types.Info

	deps []string // transitive import closure, variant suffixes stripped
}

// World is the result of loading a set of packages: the typechecked
// targets plus the module-wide facts the cross-package analyzers need.
type World struct {
	// Fset maps positions for every loaded file.
	Fset *token.FileSet
	// Packages are the analysis targets, in load order.
	Packages []*Package
	// Facts carries module-wide cross-references (wire-conformance
	// linkage); see ModuleFacts.
	Facts *ModuleFacts
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	ForTest    string
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Deps       []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

// conformanceTestRe recognizes the module's all-kinds wire round-trip
// conformance test; every package linked into a test binary containing
// it has its registered kinds exercised automatically.
var conformanceTestRe = regexp.MustCompile(`^(Test|Fuzz)\w*RoundTripAllKinds$|^(Test|Fuzz)AllKinds\w*RoundTrip\w*$`)

// Load lists patterns with the go tool (including test variants and
// export data for all dependencies), parses and typechecks every
// matched package from source, and returns them ready for analysis.
// dir is the working directory for the go tool ("" = current).
func Load(dir string, patterns ...string) (*World, error) {
	args := append([]string{"list", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	recs := make(map[string]*listPkg)
	var order []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		rec := new(listPkg)
		if err := dec.Decode(rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		recs[rec.ImportPath] = rec
		order = append(order, rec)
	}

	ld := &loader{fset: token.NewFileSet(), recs: recs}

	// A plain package is subsumed by its "[p.test]" variant, which
	// typechecks the same files plus the in-package tests.
	hasVariant := make(map[string]bool)
	for _, rec := range order {
		if rec.ForTest != "" && rec.Name != "main" && !strings.Contains(rec.ImportPath, "_test [") {
			hasVariant[rec.ForTest] = true
		}
	}

	w := &World{Fset: ld.fset, Facts: &ModuleFacts{ConformanceImports: make(map[string]bool)}}
	for _, rec := range order {
		if rec.DepOnly || rec.Module == nil || len(rec.GoFiles) == 0 {
			continue
		}
		if rec.Name == "main" && strings.HasSuffix(rec.ImportPath, ".test") {
			continue // synthesized test-main package
		}
		if rec.ForTest == "" && hasVariant[rec.ImportPath] {
			continue
		}
		pkg, err := ld.typecheck(rec)
		if err != nil {
			return nil, err
		}
		w.Packages = append(w.Packages, pkg)
	}

	// Cross-reference the wire-conformance linkage: any loaded test
	// variant defining the all-kinds round-trip test vouches for its
	// whole dependency closure.
	for _, pkg := range w.Packages {
		if !declaresConformanceTest(pkg) {
			continue
		}
		w.Facts.HasConformanceTest = true
		w.Facts.ConformanceImports[pkg.Path] = true
		for _, dep := range pkg.deps {
			w.Facts.ConformanceImports[dep] = true
		}
	}
	return w, nil
}

// loader typechecks each target package from source against the gc
// export data of its dependencies. Every target gets its own importer:
// export data unifies referenced packages by declared import path, and
// a test variant's world must resolve the package under test to the
// variant (which carries the in-package test declarations), not to the
// plain package another target already pulled in.
type loader struct {
	fset *token.FileSet
	recs map[string]*listPkg
}

// lookupExport feeds the gc importer the export-data file go list
// reported for an import path.
func (ld *loader) lookupExport(path string) (io.ReadCloser, error) {
	rec := ld.recs[path]
	if rec == nil || rec.Export == "" {
		return nil, fmt.Errorf("wwlint: no export data for %q", path)
	}
	return os.Open(rec.Export)
}

// typecheck parses and checks one go list record.
func (ld *loader) typecheck(rec *listPkg) (*Package, error) {
	if len(rec.CgoFiles) > 0 {
		return nil, fmt.Errorf("wwlint: %s uses cgo, which the loader does not support", rec.ImportPath)
	}
	var files []*ast.File
	for _, name := range rec.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(rec.Dir, name)
		}
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &mapImporter{
			gc:        importer.ForCompiler(ld.fset, "gc", ld.lookupExport),
			importMap: rec.ImportMap,
		},
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tp, err := conf.Check(effectivePath(rec), ld.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("wwlint: typecheck %s: %v", rec.ImportPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("wwlint: typecheck %s: %v", rec.ImportPath, err)
	}
	pkg := &Package{
		Path:   effectivePath(rec),
		Dir:    rec.Dir,
		Module: rec.Module.Path,
		XTest:  strings.Contains(rec.ImportPath, "_test ["),
		Files:  files,
		Pkg:    tp,
		Info:   info,
	}
	for _, dep := range rec.Deps {
		pkg.deps = append(pkg.deps, trimVariant(dep))
	}
	return pkg, nil
}

// mapImporter resolves one package's imports through its go list
// ImportMap (test-variant rewrites) and then gc export data.
type mapImporter struct {
	gc        types.Importer
	importMap map[string]string
}

// Import implements types.Importer.
func (m *mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return m.gc.Import(path)
}

// effectivePath is the import path analyzers should see: the path under
// test for a variant, the plain path otherwise.
func effectivePath(rec *listPkg) string {
	if rec.ForTest != "" {
		return rec.ForTest
	}
	return rec.ImportPath
}

// trimVariant strips go list's " [p.test]" suffix from a dep path.
func trimVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// declaresConformanceTest reports whether the package declares the
// all-kinds wire round-trip test.
func declaresConformanceTest(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && conformanceTestRe.MatchString(fd.Name.Name) {
				return true
			}
		}
	}
	return false
}

// Run executes every analyzer over every package in the world and
// returns the merged, position-sorted findings. Malformed wwlint
// annotations (no reason given) are reported under the "annotation"
// pseudo-analyzer.
func Run(w *World, analyzers []*Analyzer) ([]Diagnostic, error) {
	var ds []Diagnostic
	report := func(d Diagnostic) { ds = append(ds, d) }
	for _, pkg := range w.Packages {
		idx := buildAllowIndex(w.Fset, pkg.Files)
		for _, bad := range idx.malformed {
			ds = append(ds, Diagnostic{
				Pos:      bad.pos,
				Analyzer: "annotation",
				Message:  fmt.Sprintf("wwlint:%s %s needs a reason (grammar: //wwlint:allow <analyzer> <reason>)", map[bool]string{true: "allowfile", false: "allow"}[bad.fileWide], bad.analyzer),
			})
		}
		for _, az := range analyzers {
			pass := &Pass{
				Analyzer: az,
				Fset:     w.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Path:     pkg.Path,
				Module:   pkg.Module,
				XTest:    pkg.XTest,
				Facts:    w.Facts,
				allow:    idx,
				report:   report,
			}
			if err := az.Run(pass); err != nil {
				return nil, fmt.Errorf("wwlint: %s on %s: %v", az.Name, pkg.Path, err)
			}
		}
	}
	return sortDiagnostics(ds), nil
}
