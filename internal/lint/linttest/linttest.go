// Package linttest is bcclint's analysistest: it runs one analyzer over a
// fixture package (a directory of Go files under testdata/) and matches
// the produced diagnostics against `// want "regexp"` expectations in the
// fixture source, in both directions — every diagnostic needs a matching
// want on its line, every want needs a diagnostic.
//
// Fixture packages are parsed and type-checked for real: standard-library
// imports resolve through `go list -export` export data, so analyzers see
// exactly the type information they see in production. Analyzer Match
// scoping is deliberately bypassed (fixtures live outside the module
// path); Match functions are unit-tested directly instead.
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bicoop/internal/lint"
)

// exportCache shares one `go list -export` resolution per import-path set
// across a test binary's fixtures.
var exportCache = struct {
	sync.Mutex
	m map[string]lint.ExportLookup
}{m: map[string]lint.ExportLookup{}}

// stdExports resolves export data for the fixture's imports, cached.
func stdExports(t *testing.T, moduleDir string, imports []string) lint.ExportLookup {
	t.Helper()
	sort.Strings(imports)
	key := strings.Join(imports, ",")
	exportCache.Lock()
	defer exportCache.Unlock()
	if got, ok := exportCache.m[key]; ok {
		return got
	}
	exports, err := lint.ListExports(moduleDir, imports)
	if err != nil {
		t.Fatalf("resolving fixture imports: %v", err)
	}
	exportCache.m[key] = exports
	return exports
}

// want is one expectation: a diagnostic whose message matches re on line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// Run applies the analyzer to the fixture package in dir and asserts the
// diagnostics equal the fixture's `// want` expectations.
//
//bicoop:allow deadexport — fixture runner for the internal/lint/analyzers tests
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	moduleDir, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("fixture import %s: %v", imp.Path.Value, err)
			}
			importSet[path] = true
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	exports := stdExports(t, moduleDir, imports)

	pkgPath := "fixture/" + filepath.Base(dir)
	pkg, info, err := lint.TypeCheck(pkgPath, fset, files, exports)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}

	var diags []lint.Diagnostic
	pass := &lint.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d lint.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	lint.SortDiagnostics(fset, diags)

	wants := collectWants(t, fset, files)
	matched := make([]bool, len(wants))
diagLoop:
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		for i, w := range wants {
			if matched[i] || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				continue diagLoop
			}
		}
		t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
}

// collectWants parses `// want "regexp"` comments. The expectation applies
// to the line the comment sits on.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				quoted := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				pattern, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatalf("%s: malformed want %q: %v", fset.Position(c.Pos()), quoted, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), pattern, err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}
