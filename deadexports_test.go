package codetomo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods that may have no
// caller in non-test code: differential oracles that tests in other
// packages compare the production path against, and methods that satisfy a
// standard-library interface by name.
var exportAllowlist = map[string]bool{
	// Differential oracles for tests in other packages.
	"Interpret":        true, // minic: source-level semantics
	"PathCycles":       true, // compile: exact cycles of one block path
	"ProfileCounters":  true, // mote: PROFCNT counter values
	"OracleEdgeCounts": true, // profile: ground-truth edge counts
	"EnterID":          true, // trace: event ids of a procedure entry
	"ExitID":           true, // trace: event ids of a procedure exit
	// Standard-library interfaces, satisfied by name.
	"String":        true, // fmt.Stringer
	"Error":         true, // error
	"Unwrap":        true, // errors.Unwrap
	"Len":           true, // sort.Interface
	"Less":          true, // sort.Interface
	"Swap":          true, // sort.Interface
	"Read":          true, // io.Reader
	"Write":         true, // io.Writer
	"Close":         true, // io.Closer
	"ServeHTTP":     true, // http.Handler
	"MarshalJSON":   true, // json.Marshaler
	"UnmarshalJSON": true, // json.Unmarshaler
}

// TestNoDeadExports fails on every exported function or method whose name
// appears nowhere in the module's non-test code outside its own
// declaration. The benchmark harness in perfbench/ is its own module but
// counts as a caller. The scan is by name, not by type, so a method is kept
// alive by any use of the same name; it errs towards keeping code.
func TestNoDeadExports(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
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
		checked := !strings.HasPrefix(path, "perfbench"+string(filepath.Separator))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				countIdents(d, "", uses)
				continue
			}
			name := fd.Name.Name
			if checked && fd.Name.IsExported() {
				decls = append(decls, decl{name, fset.Position(fd.Pos())})
			}
			// A function's own name inside its declaration (the name
			// itself, a recursive call) does not make it live.
			countIdents(fd, name, uses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if uses[d.name] == 0 && !exportAllowlist[d.name] {
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported with no caller outside tests: %s", d)
	}
}

// countIdents adds every identifier under n to uses, except those named
// self.
func countIdents(n ast.Node, self string, uses map[string]int) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != self {
			uses[id.Name]++
		}
		return true
	})
}
