// Package pageretain machine-checks the engine's zero-copy
// buffer-ownership contract (README "Buffer ownership and zero-copy",
// core.RunStore):
//
//   - A RunStore must not retain the page slices passed to Append past the
//     returned token's completion — the engine recycles its output page
//     buffers the moment the token completes. Storing the pages (or an
//     element of them) into a field, global or map, or capturing them in a
//     goroutine, is durable retention and corrupts recycled pages. A store
//     whose read tokens offer Release (core.PageReleaser) promises more: no
//     payload bytes of those pages survive the token either, because the
//     merge hands the input frames they alias back to the store at that
//     moment — which is why a store that keeps payload bytes and hands
//     them out again (MemStore's stored chunks, decoded in place on every
//     read, or the caller's payloads it shares) must never offer Release. (Retained payload aliases are beyond
//     this intra-procedural check; storetest.PoisonStore catches them at
//     run time.)
//   - Pooled buffers (the paged-run layer's bufPool.getBuf/putBuf for raw
//     buffers — a batch's encoded bytes on the way out, a page's on the way
//     in; sync.Pool) must not be used after being returned to the pool. Read
//     frames need no such rule: frameList.put empties the holder it is
//     given, and Release ends its token's life.
//   - The aliasBytes result of pagecodec.DecodePageInto (and of its
//     nil-frame form DecodePageSum) says whether the decoded records still
//     alias the input buffer; discarding it while recycling the buffer in
//     the same function is a latent aliasing bug. The disk-backed stores no
//     longer have the question: bytes read into a pooled buffer are decoded
//     with DecodePageCopy, which copies the frame's payload column into the
//     caller's arena in one piece, leaves no alias behind and reports none,
//     and DecodePageInto is kept for a device's view, which is never
//     recycled — the rule stands for whoever decodes in place next. Both
//     decoders are one routine that verifies the frame before it writes a
//     record, so a failed decode leaves no alias either.
//
// The analysis is intra-procedural and heuristic: it tracks taint through
// local assignments, range statements and append calls, and treats
// explicit copies (make + copy) as breaking the chain. Genuinely safe
// retention (e.g. handing encoded bytes — not pages — to a writer that
// completes the token) is invisible to it and needs no annotation; a
// false positive can be suppressed with
// "//masortlint:allow pageretain -- reason".
package pageretain

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/memadapt/masort/internal/analyzers/analysis"
	"github.com/memadapt/masort/internal/analyzers/lintutil"
)

// Analyzer flags page-slice retention in Append implementations,
// use-after-recycle of pooled buffers, and discarded page-decode alias
// accounting.
var Analyzer = &analysis.Analyzer{
	Name: "pageretain",
	Doc: "run stores must not retain Append page slices or recycled buffers\n\n" +
		"Enforces the zero-copy buffer-ownership contract: Append pages are\n" +
		"recycled after token completion, pooled buffers die at putBuf/Put, and\n" +
		"a page decode's aliasBytes must be honored before recycling.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "Append" && fd.Recv != nil {
				checkAppendRetention(pass, fd)
			}
			checkRecycle(pass, fd)
		}
	}
	return nil
}

// ---- rule A: Append must not retain its page slices ----

// checkAppendRetention taints the []Page parameter of a store's Append
// method and flags stores of tainted values into retained locations.
func checkAppendRetention(pass *analysis.Pass, fd *ast.FuncDecl) {
	tainted := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		if !isPageSlice(pass, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				tainted[obj] = true
			}
		}
	}
	if len(tainted) == 0 {
		return
	}

	taintedValue := func(e ast.Expr) bool { return isTaintedValue(pass, tainted, e) }

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// for _, p := range pages: the element var aliases a page.
			if taintedValue(n.X) && n.Value != nil {
				if id, ok := n.Value.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !taintedValue(rhs) {
					continue
				}
				lhs := n.Lhs[i]
				if local, obj := localTarget(pass, lhs); local {
					if obj != nil {
						tainted[obj] = true
					}
				} else {
					pass.Reportf(n.Pos(),
						"page slice from Append is stored in %s and outlives the token: the engine recycles page buffers once the token completes — copy the records instead",
						describeTarget(lhs))
				}
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				reportTaintedCaptures(pass, tainted, lit)
			}
		}
		return true
	})
}

// isPageSlice reports whether the type expression is []Page (element type
// named "Page").
func isPageSlice(pass *analysis.Pass, texpr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[texpr]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return lintutil.NamedTypeName(sl.Elem()) == "Page"
}

// isTaintedValue reports whether e yields (a view of) a tainted page
// slice: the slice itself, an element or sub-slice of it, or an append
// that folds tainted elements in. A call other than append is a barrier —
// the idiomatic deep copy (make + copy) never mentions the source on the
// stored path.
func isTaintedValue(pass *analysis.Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return tainted[pass.TypesInfo.Uses[e]]
	case *ast.IndexExpr:
		return isTaintedValue(pass, tainted, e.X)
	case *ast.SliceExpr:
		return isTaintedValue(pass, tainted, e.X)
	case *ast.UnaryExpr:
		return isTaintedValue(pass, tainted, e.X)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range e.Args {
				if isTaintedValue(pass, tainted, arg) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// localTarget classifies an assignment target: function-local variables
// are safe sinks (taint propagates); fields, globals, maps and pointer
// dereferences retain.
func localTarget(pass *analysis.Pass, lhs ast.Expr) (local bool, obj types.Object) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return true, nil
		}
		obj := pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Uses[lhs]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return false, nil // package-level variable
		}
		return true, obj
	}
	return false, nil
}

func describeTarget(lhs ast.Expr) string {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		_ = lhs
		return "a map or slice element"
	case *ast.StarExpr:
		return "a pointer target"
	case *ast.Ident:
		return "a package-level variable"
	}
	return "a retained location"
}

// reportTaintedCaptures flags references to tainted objects inside a
// goroutine body: the goroutine's lifetime is not bounded by the token.
func reportTaintedCaptures(pass *analysis.Pass, tainted map[types.Object]bool, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && tainted[pass.TypesInfo.Uses[id]] {
			pass.Reportf(id.Pos(),
				"page slice %s captured by a goroutine launched from Append: the engine recycles page buffers once the token completes",
				id.Name)
			return false
		}
		return true
	})
}

// ---- rules B and C: pooled buffers die at putBuf/Put ----

type putCall struct {
	obj      types.Object
	end      token.Pos      // end of the put statement
	block    *ast.BlockStmt // innermost block holding the put
	curtains bool           // that block ends in return/branch (uses after it are on other paths)
}

// checkRecycle flags uses of a buffer after it was returned to the pool
// (rule B) and page-decode calls that discard aliasBytes while the buffer is
// recycled in the same function (rule C).
func checkRecycle(pass *analysis.Pass, fd *ast.FuncDecl) {
	var puts []putCall
	putObjs := map[types.Object]bool{}
	writes := map[token.Pos]bool{} // positions of assignment-target idents
	var kills []struct {
		obj types.Object
		pos token.Pos
	}

	lintutil.WithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj := recycledBuffer(pass, n); obj != nil {
				block, terminates := enclosingBlockInfo(stack, n)
				puts = append(puts, putCall{obj: obj, end: n.End(), block: block, curtains: terminates})
				putObjs[obj] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil {
						writes[id.Pos()] = true
						// The kill takes effect after the whole statement:
						// the RHS still reads the old value.
						kills = append(kills, struct {
							obj types.Object
							pos token.Pos
						}{obj, n.End()})
					}
				}
			}
		}
		return true
	})

	checkDecodeAlias(pass, fd, putObjs)

	if len(puts) == 0 {
		return
	}
	killed := func(obj types.Object, from, to token.Pos) bool {
		for _, k := range kills {
			if k.obj == obj && k.pos > from && k.pos < to {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || writes[id.Pos()] {
			return true
		}
		for _, put := range puts {
			if put.obj != obj || id.Pos() <= put.end {
				continue
			}
			if id.Pos() > put.block.End() && put.curtains {
				continue // the put's branch returned; this use is on another path
			}
			if killed(obj, put.end, id.Pos()) {
				continue // reassigned (e.g. a fresh getBuf) before this use
			}
			pass.Reportf(id.Pos(),
				"buffer %s used after being returned to the pool (recycled at %s)",
				id.Name, pass.Fset.Position(put.end))
			return true
		}
		return true
	})
}

// recycledBuffer returns the buffer object a call returns to a pool:
// x.putBuf(b), pool.Put(&b) / pool.Put(b) for a sync.Pool. Nil otherwise.
func recycledBuffer(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	switch sel.Sel.Name {
	case "putBuf":
		// Any method named putBuf is treated as a pool return.
	case "Put":
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !isSyncPool(tv.Type) {
			return nil
		}
	default:
		return nil
	}
	arg := ast.Unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = ast.Unparen(u.X)
	}
	if id, ok := arg.(*ast.Ident); ok {
		return pass.TypesInfo.Uses[id]
	}
	return nil
}

func isSyncPool(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// enclosingBlockInfo finds the innermost block on the stack and whether
// its statement list ends in a return or branch statement.
func enclosingBlockInfo(stack []ast.Node, n ast.Node) (*ast.BlockStmt, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			terminates := false
			if len(b.List) > 0 {
				switch b.List[len(b.List)-1].(type) {
				case *ast.ReturnStmt, *ast.BranchStmt:
					terminates = true
				}
			}
			return b, terminates
		}
	}
	return nil, false
}

// checkDecodeAlias implements rule C: pg, _, n, err := DecodePageInto(into,
// buf) — or DecodePageSum(buf) — in a function that also recycles buf is
// discarding the only signal that pg still aliases buf. The encoded buffer
// is the call's last argument in both forms.
func checkDecodeAlias(pass *analysis.Pass, fd *ast.FuncDecl, putObjs map[types.Object]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 4 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || !isDecodePage(pass, call) || len(call.Args) == 0 {
			return true
		}
		alias, ok := ast.Unparen(assign.Lhs[1]).(*ast.Ident)
		if !ok || alias.Name != "_" {
			return true
		}
		if root := rootIdent(call.Args[len(call.Args)-1]); root != nil && putObjs[pass.TypesInfo.Uses[root]] {
			pass.Reportf(alias.Pos(),
				"aliasBytes result of page decode is discarded but %s is recycled in this function: decoded payloads may alias a recycled buffer — check aliasBytes before putBuf",
				root.Name)
		}
		return true
	})
}

func isDecodePage(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "DecodePageSum" && sel.Sel.Name != "DecodePageInto" {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "pagecodec"
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
