// Package simdeterminism enforces the property that makes "simulator
// tables are byte-identical" a checkable claim instead of an aspiration:
// the simulation packages (sim, simenv, diskmodel, cpumodel, experiments)
// and the shared engine core must not consult wall-clock time, draw from
// the process-global random source, iterate maps in unspecified order, or
// spawn goroutines.
//
// Some machinery legitimately needs an escape hatch — the sim scheduler's
// lock-step coroutine handoff is built on goroutines, the experiments
// driver fans independent simulations out to workers, and the core's one
// phase driver runs a phase on W workers. The driver is goroutine-free at
// W = 1 (the phase body runs inline — every simulated sort, since the
// simulator never sets SortConfig.Workers) and spawns in exactly one place
// at W > 1: runCrew's workers, whose memory the operation's own broker
// arbitrates without a goroutine of its own. All those sites carry a
// "//masortlint:allow simdeterminism -- reason" directive; the mandatory
// justification is the audit trail.
package simdeterminism

import (
	"go/ast"
	"go/types"

	"github.com/memadapt/masort/internal/analyzers/analysis"
	"github.com/memadapt/masort/internal/analyzers/lintutil"
)

// simPackages names the packages held to the determinism contract.
var simPackages = map[string]bool{
	"sim":         true,
	"simenv":      true,
	"diskmodel":   true,
	"cpumodel":    true,
	"experiments": true,
	// core runs under the simulator too: everything it does on behalf of a
	// simulated sort must stay deterministic. Its phase driver (runCrew)
	// takes the worker count as data and runs inline at W = 1; W > 1 needs
	// SortConfig.Workers, which the simulator never sets. The one spawn
	// site (runCrew's workers) carries an allow directive recording that.
	"core": true,
}

// randConstructors are the math/rand functions that build a seeded,
// locally-owned source — the deterministic way to use the package.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewZipf":    true,
	"NewChaCha8": true,
}

// Analyzer flags wall-clock reads, global rand draws, map-order iteration
// and goroutine spawns in the simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "simulator packages must stay deterministic (byte-identical tables)\n\n" +
		"Forbids time.Now, package-global math/rand draws, range over maps and\n" +
		"go statements in the sim/simenv/diskmodel/cpumodel/experiments packages.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !simPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, f) {
			continue // tests may use timeouts and scratch maps freely
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine spawned in simulator package %s: scheduling order is nondeterministic",
					pass.Pkg.Name())
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags time.Now and package-level math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Only package-level functions: methods on a local *rand.Rand are the
	// sanctioned seeded form.
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now in simulator package %s: use the simulated clock", pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[obj.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the process-global random source; use a locally seeded rand.New(rand.NewSource(seed))",
				obj.Pkg().Name(), obj.Name())
		}
	}
}

// checkRange flags iteration over map types: Go randomizes map order, so
// any output influenced by the visit order varies run to run.
func checkRange(pass *analysis.Pass, r *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[r.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		pass.Reportf(r.Pos(),
			"range over map in simulator package %s: iteration order is randomized — iterate sorted keys",
			pass.Pkg.Name())
	}
}
