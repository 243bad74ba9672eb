package masort

import (
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestNoDeprecatedExports keeps compatibility shims from growing back: the
// module is pre-1.0 with no external users, so an exported declaration that
// needs a "Deprecated:" note is deleted instead.
func TestNoDeprecatedExports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.New(pkgs["masort"], "github.com/memadapt/masort", 0) // exported declarations only
	check := func(name, text string) {
		if strings.Contains(text, "Deprecated:") {
			t.Errorf("%s is exported and marked Deprecated: delete it", name)
		}
	}
	values := append(p.Consts, p.Vars...)
	funcs := p.Funcs
	for _, ty := range p.Types {
		check(ty.Name, ty.Doc)
		values = append(append(values, ty.Consts...), ty.Vars...)
		funcs = append(append(funcs, ty.Funcs...), ty.Methods...)
	}
	for _, v := range values {
		check(strings.Join(v.Names, ","), v.Doc)
	}
	for _, f := range funcs {
		check(f.Name, f.Doc)
	}
}
