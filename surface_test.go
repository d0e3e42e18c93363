package heterosw

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurface pins the package's exported names, one line each, to
// testdata/api.txt: every exported const, var, type and func declared in
// a non-test file, and every exported method of an exported type. A name
// added to or removed from the surface is then a reviewed line of that
// file. Regenerate it with
//
//	go test -run TestPublicSurface -update .
func TestPublicSurface(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			names = append(names, exportedNames(decl)...)
		}
	}
	slices.Sort(names)
	checkGoldenText(t, "public surface", []byte(strings.Join(names, "\n")+"\n"), "testdata/api.txt")
}

// exportedNames lists one declaration's exported names as "const X",
// "var X", "type X", "func X" or "method (T) X" / "method (*T) X".
func exportedNames(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			break
		}
		if d.Recv == nil {
			out = append(out, "func "+d.Name.Name)
			break
		}
		recv, star := d.Recv.List[0].Type, ""
		if s, ok := recv.(*ast.StarExpr); ok {
			recv, star = s.X, "*"
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
			out = append(out, "method ("+star+id.Name+") "+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, d.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return out
}
