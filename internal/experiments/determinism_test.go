package experiments

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulatorRangesOverNoMap holds the one determinism rule the golden
// tables cannot: the simulator and the engine core it runs never range over
// a map. Go varies map order from one iteration to the next, but over a small
// map the order rarely differs from the insertion order, so a table built in
// map order fails TestSimulatorTablesGolden only now and then. This test
// type-checks the packages from source and fails on every range over a map
// but sim's kill-all teardown (Sim.shutdown), whose order cannot matter.
func TestSimulatorRangesOverNoMap(t *testing.T) {
	allowed := map[string]bool{"sim.shutdown": true}
	fset := token.NewFileSet()
	// Their dependencies are typed from export data (go list -export).
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "../...").Output()
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	for _, dir := range []string{"../sim", "../simenv", "../diskmodel", "../cpumodel", ".", "../core"} {
		pkgs, err := parser.ParseDir(fset, dir, notTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range pkgs {
			var files []*ast.File
			for _, f := range p.Files {
				files = append(files, f)
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check(abs, fset, files, info); err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok && allowed[name+"."+fn.Name.Name] {
						continue
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if r, ok := n.(*ast.RangeStmt); ok {
							if _, isMap := info.TypeOf(r.X).Underlying().(*types.Map); isMap {
								t.Errorf("%s: range over a map in package %s: iterate sorted keys", fset.Position(r.Pos()), name)
							}
						}
						return true
					})
				}
			}
		}
	}
}
