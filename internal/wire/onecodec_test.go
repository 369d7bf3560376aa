package wire_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// codecExempt are the module-relative directories allowed a second
// codec: the linter reads `go list -json`, wwbench writes its report
// file, and bench/ is frozen with its own report format.
var codecExempt = []string{"bench", "internal/lint", "cmd/wwbench"}

// TestOneCodec keeps the wire codec the only one: it parses every
// non-test Go file of the module outside codecExempt and fails on an
// encoding/json import. Application data crosses the library as bytes
// the application encodes, and the library's own records — stored
// state, checkpoints, rpc frames — use AppendBinary/UnmarshalBinary and
// this package's helpers.
func TestOneCodec(t *testing.T) {
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
			for _, dir := range codecExempt {
				if rel == dir {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/json" {
				t.Errorf("%s imports encoding/json: encode with AppendBinary/UnmarshalBinary and the wire helpers", rel)
			}
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
