package lint

import (
	"go/ast"
	"path/filepath"
	"testing"
)

// repoRoot locates the module root from this package's directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestLoadTypeChecksModulePackage loads a real module package through the
// export-data pipeline and spot-checks that syntax and type information
// line up: every parsed file belongs to the right package and a known
// function resolves to a *types.Func with its documented signature.
func TestLoadTypeChecksModulePackage(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/gf2")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "bicoop/internal/gf2" || p.Name != "gf2" {
		t.Fatalf("loaded %s (%s), want bicoop/internal/gf2 (gf2)", p.PkgPath, p.Name)
	}
	if len(p.Files) == 0 {
		t.Fatal("no files parsed")
	}
	dot := p.Pkg.Scope().Lookup("Dot")
	if dot == nil {
		t.Fatal("gf2.Dot not found in type-checked scope")
	}
	// Types must have flowed: Dot's identifier in the syntax resolves to
	// the same object the package scope holds.
	found := false
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "Dot" && fd.Recv == nil {
				if p.Info.Defs[fd.Name] == dot {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		t.Error("Dot's declaration does not resolve to the scope object; types and syntax are out of sync")
	}
}

// TestLoadDependencyViaExportData ensures intra-module imports resolve
// through export data: internal/sim imports gf2 and protocols, among others.
func TestLoadDependencyViaExportData(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if pkgs[0].Pkg.Scope().Lookup("RunBitTrueTDBC") == nil {
		t.Fatal("sim.RunBitTrueTDBC not found")
	}
}

// TestAllowDirectiveParsing pins the waiver grammar.
func TestAllowDirectiveParsing(t *testing.T) {
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//bicoop:allow ctxflow — nil-Ctx default resolver", "ctxflow", true},
		{"//bicoop:allow detrand", "detrand", true},
		{"//bicoop:allow ", "", false},
		{"// bicoop:allow ctxflow", "", false},
		{"//bicoop:noalloc", "", false},
	}
	for _, c := range cases {
		name, ok := allowDirective(c.text)
		if name != c.name || ok != c.ok {
			t.Errorf("allowDirective(%q) = %q, %v; want %q, %v", c.text, name, ok, c.name, c.ok)
		}
	}
}

// TestHasDirective pins the annotation grammar used by noalloc/atomicwrite.
func TestHasDirective(t *testing.T) {
	doc := &ast.CommentGroup{List: []*ast.Comment{
		{Text: "// reduce eliminates the spare row."},
		{Text: "//bicoop:noalloc"},
	}}
	if !HasDirective(doc, "noalloc") {
		t.Error("directive not detected")
	}
	if HasDirective(doc, "atomicio") {
		t.Error("wrong directive detected")
	}
	if HasDirective(nil, "noalloc") {
		t.Error("nil doc matched")
	}
	spaced := &ast.CommentGroup{List: []*ast.Comment{{Text: "// bicoop:noalloc"}}}
	if HasDirective(spaced, "noalloc") {
		t.Error("non-directive comment (space after //) must not match")
	}
}
