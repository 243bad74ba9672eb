package experiments

import (
	"os"
	"strings"
	"testing"
)

// goldenTables is what `masim -exp all -scale 0.1 -sorts 2 -q` printed
// before the real engine's selection structure was decoupled from the
// simulator's (PR 13). The simulator's CPU model charges the classic heap's
// comparison counts, so no real-engine change may move a digit of it; a PR
// that means to change the simulation regenerates the file and says why.
const goldenTables = "testdata/masim_all_scale0.1_sorts2.golden"

// TestSimulatorTablesGolden regenerates every experiment table at the CI
// smoke scale and diffs it against the committed output.
func TestSimulatorTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all ten experiments (~5 s)")
	}
	want, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range All {
		tables, err := e.Run(Options{Seed: 1, Sorts: 2, Scale: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for i := range tables {
			got.WriteString(tables[i].String() + "\n")
		}
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("simulator tables moved; first difference at line %d of %s:\n got: %s\nwant: %s", i+1, goldenTables, g, w)
		}
	}
}
