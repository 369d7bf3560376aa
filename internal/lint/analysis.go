package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so analyzers written here port
// to the upstream driver mechanically if the dependency is ever vendored.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //wwlint:allow annotations.
	Name string
	// Doc is the one-paragraph description shown by `wwlint -help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single typechecked package:
// the syntax trees (including in-package test files when the package is
// a test variant), the type information, and the reporting sink.
type Pass struct {
	// Analyzer is the analyzer this pass executes.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the pass.
	Fset *token.FileSet
	// Files holds the package's parsed files, test files included.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info carries the typechecker's resolution tables for Files.
	Info *types.Info
	// Path is the package's effective import path. For a test variant
	// it is the path under test (go list's ForTest), so analyzers gate
	// on real package identity.
	Path string
	// Module is the path of the module the package belongs to.
	Module string
	// XTest reports an external (package foo_test) test variant.
	XTest bool
	// Facts exposes module-wide cross-references computed by the
	// loader, such as which packages the root wire-conformance test
	// binary links.
	Facts *ModuleFacts

	allow  *allowIndex
	report func(Diagnostic)
}

// ModuleFacts carries the few cross-package facts analyzers need that a
// single-package pass cannot see.
type ModuleFacts struct {
	// ConformanceImports is the set of import paths linked into the
	// root test binary that runs the all-kinds envelope round-trip
	// test; wire.Register calls in these packages are covered by it.
	ConformanceImports map[string]bool
	// HasConformanceTest reports that the all-kinds round-trip test
	// itself was found, so ConformanceImports is trustworthy.
	HasConformanceTest bool
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that produced it.
	Analyzer string
	// Message describes the violation and, ideally, the fix.
	Message string
}

// String renders the finding as path:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a //wwlint:allow annotation
// for this analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allowed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// allowRe matches a suppression annotation. Like other Go directives
// it must start its comment (`//wwlint:`, no space), so prose that
// mentions the grammar never parses as one. Group 1 is "allow" or
// "allowfile", group 2 the analyzer name, group 3 the reason.
var allowRe = regexp.MustCompile(`^//wwlint:(allow|allowfile)\s+([A-Za-z0-9_-]+)[ \t]*(.*)`)

// allowEntry is one parsed annotation.
type allowEntry struct {
	analyzer string
	fileWide bool
	reason   string
	pos      token.Position
}

// allowIndex resolves whether a position is covered by an annotation:
// same line, the line immediately above, or anywhere in the file for
// allowfile.
type allowIndex struct {
	// byFileLine maps filename -> line -> analyzers allowed there.
	byFileLine map[string]map[int]map[string]bool
	// fileWide maps filename -> analyzers allowed file-wide.
	fileWide map[string]map[string]bool
	// malformed collects annotations missing a reason.
	malformed []allowEntry
}

// buildAllowIndex scans every comment in files for wwlint annotations.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{
		byFileLine: make(map[string]map[int]map[string]bool),
		fileWide:   make(map[string]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				e := allowEntry{analyzer: m[2], fileWide: m[1] == "allowfile", reason: strings.TrimSpace(m[3]), pos: pos}
				if e.reason == "" {
					idx.malformed = append(idx.malformed, e)
					continue
				}
				if e.fileWide {
					if idx.fileWide[pos.Filename] == nil {
						idx.fileWide[pos.Filename] = make(map[string]bool)
					}
					idx.fileWide[pos.Filename][e.analyzer] = true
					continue
				}
				lines := idx.byFileLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx.byFileLine[pos.Filename] = lines
				}
				// The annotation covers its own line (trailing comment)
				// and the next line (comment above the statement).
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if lines[ln] == nil {
						lines[ln] = make(map[string]bool)
					}
					lines[ln][e.analyzer] = true
				}
			}
		}
	}
	return idx
}

func (idx *allowIndex) allowed(analyzer string, pos token.Position) bool {
	if idx == nil {
		return false
	}
	if idx.fileWide[pos.Filename][analyzer] {
		return true
	}
	return idx.byFileLine[pos.Filename][pos.Line][analyzer]
}

// sortDiagnostics orders findings by file, line, column, analyzer and
// removes exact duplicates (a file shared by a package and its test
// variant is analyzed twice).
func sortDiagnostics(ds []Diagnostic) []Diagnostic {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := ds[:0]
	var last Diagnostic
	for i, d := range ds {
		if i > 0 && d.Pos == last.Pos && d.Analyzer == last.Analyzer && d.Message == last.Message {
			continue
		}
		out = append(out, d)
		last = d
	}
	return out
}
