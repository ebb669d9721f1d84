package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deadexport is a whole-program check, so it lives here as a test rather
// than as an Analyzer: Analyzer.Run sees one package at a time and cannot
// tell whether another package calls an exported function. Waivers use the
// analyzer grammar, "//bicoop:allow deadexport — reason", on the line of
// the func keyword or the line directly above it.
const deadexportName = "deadexport"

// TestNoDeadExports fails on every exported func or method in an internal/
// package that no non-test file of the root module or of perfbench/
// references. Delete the function, move it into the _test.go file that
// needs it, or waive it naming the test packages that share it.
func TestNoDeadExports(t *testing.T) {
	root := repoRoot(t)
	mod, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load(filepath.Join(root, "perfbench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range deadExports(mod, append(mod, bench...)) {
		t.Errorf("%s: exported, but no non-test file references it", name)
	}
}

// TestDeadExportsFixture pins the check on a planted package: a dead
// function (calling itself does not make it live) is flagged, while a
// called function, a waived function and a String method are not.
func TestDeadExportsFixture(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/lint/testdata/deadexport")
	if err != nil {
		t.Fatal(err)
	}
	got := deadExports(pkgs, pkgs)
	want := []string{"bicoop/internal/lint/testdata/deadexport.Dead"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deadExports = %q, want %q", got, want)
	}
}

// deadExports returns, sorted, the key of every exported func or method
// declared in an internal/ package of decls that no file of refs
// references outside its own declaration and no deadexport waiver covers.
// Keys are "pkgpath.Name" or "pkgpath.Recv.Name", so a reference seen
// through export data (perfbench/ imports the root module that way)
// matches the declaration type-checked from source. Info.Uses records the
// selected object of every selector too, so method values and promoted
// methods count as references.
func deadExports(decls, refs []*Package) []string {
	used := make(map[string]bool)
	ifaces := map[*types.Interface]bool{
		ErrorType: true,
		methodIface("String", types.Typ[types.String]):               true,
		methodIface("Unwrap", types.Universe.Lookup("error").Type()): true,
	}
	for _, p := range refs {
		self := selfRefs(p)
		for id, obj := range p.Info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				if !self[id] {
					used[funcKey(obj)] = true
				}
			case *types.TypeName:
				if it, ok := obj.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
	}

	var dead []string
	for _, p := range decls {
		if !strings.Contains(p.PkgPath+"/", "/internal/") {
			continue
		}
		allows := collectAllows(p.Fset, p.Files)[deadexportName]
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				key := funcKey(fn)
				pos := p.Fset.Position(fd.Pos())
				if used[key] || allows[fileLine(pos.Filename, pos.Line)] || satisfies(fn, ifaces) {
					continue
				}
				dead = append(dead, key)
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// methodIface builds interface{ name() result }: fmt.Stringer and the
// Unwrap() error method that errors.Is and errors.As call dynamically,
// neither of which the loaded packages need to name.
func methodIface(name string, result types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(0, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil).Complete()
}

// selfRefs marks the identifiers inside each function body that refer to
// that function itself, so recursion does not keep a function alive.
func selfRefs(p *Package) map[*ast.Ident]bool {
	self := make(map[*ast.Ident]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Info.Defs[fd.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					self[id] = true
				}
				return true
			})
		}
	}
	return self
}

// funcKey names a function or method independently of which type-check
// produced its object.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "." + named.Origin().Obj().Name() + "." + fn.Name()
		}
		return pkg + ".(" + t.String() + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// satisfies reports whether fn is a method that some interface in ifaces
// declares and the method's receiver type implements, so a dynamic call
// can reach it without naming it. Interfaces seen through export data are
// distinct objects from the same types checked from source, so methods
// are matched by name and printed signature rather than types.Implements.
func satisfies(fn *types.Func, ifaces map[*types.Interface]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	have := make(map[string]bool)
	mset := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < mset.Len(); i++ {
		have[methodSig(mset.At(i).Obj().(*types.Func))] = true
	}
	for it := range ifaces {
		declares, implements := false, true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			declares = declares || m.Name() == fn.Name()
			implements = implements && have[methodSig(m)]
		}
		if declares && implements {
			return true
		}
	}
	return false
}

// methodSig prints a method's name and signature with packages qualified
// by path, so equal methods from different type-checks compare equal.
func methodSig(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	plain := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return m.Name() + types.TypeString(plain, func(p *types.Package) string { return p.Path() })
}
