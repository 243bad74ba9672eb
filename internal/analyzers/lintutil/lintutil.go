// Package lintutil holds the small AST/type helpers shared by masortlint's
// passes: ancestor-tracking walks, tracer-type recognition, and sentinel
// error detection.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WithStack walks root in depth-first order, calling fn with each node and
// the stack of its ancestors (outermost first, not including n). If fn
// returns false the node's children are skipped.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// EnclosingFuncBody returns the body of the innermost enclosing function
// (declaration or literal) on the stack, or nil.
func EnclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// EnclosingFunc returns the innermost enclosing *ast.FuncDecl or
// *ast.FuncLit on the stack, or nil.
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// IsTracerInterface reports whether t is (or points to) an interface with
// an Emit method taking a single parameter whose type is named "Event" —
// the shape of the engine's trace.Tracer. Matching on shape rather than on
// the concrete import path lets analysistest fixtures define their own
// miniature trace package.
func IsTracerInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "Emit" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() == 1 && sig.Results().Len() == 0 &&
			namedTypeName(sig.Params().At(0).Type()) == "Event" {
			return true
		}
	}
	return false
}

// IsTracerish reports whether t is a tracer-bearing type: the Tracer
// interface itself, or a (pointer to a) struct holding a Tracer-typed
// field — e.g. the engine's *opTrace and *pagedStore. A nil check on such a
// value counts as guarding the traced path.
func IsTracerish(t types.Type) bool {
	if t == nil {
		return false
	}
	if IsTracerInterface(t) {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if IsTracerInterface(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// IsEventType reports whether t is a struct type named "Event" declared in
// a package named "trace".
func IsEventType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != "Event" || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Name() != "trace" {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// namedTypeName returns the name of a (possibly aliased) named type, or "".
func namedTypeName(t types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return ""
}

// NamedTypeName exposes namedTypeName to the passes.
func NamedTypeName(t types.Type) string { return namedTypeName(t) }

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// SentinelError returns the object and name of a package-level error
// variable named Err* referenced by expr, or nil. These are the sentinel
// values (ErrFreed, ErrCanceled, ErrPoolSaturated, ...) that must be
// matched with errors.Is and wrapped with %w.
func SentinelError(info *types.Info, expr ast.Expr) types.Object {
	expr = ast.Unparen(expr)
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj := info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if !types.Implements(v.Type(), errorIface) {
		return nil
	}
	return v
}

// NilComparison inspects a binary expression for "x == nil" / "x != nil"
// and returns the non-nil operand and the operator, or nil.
func NilComparison(e ast.Expr) (operand ast.Expr, op token.Token) {
	b, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
		return nil, token.ILLEGAL
	}
	if isNilIdent(b.Y) {
		return b.X, b.Op
	}
	if isNilIdent(b.X) {
		return b.Y, b.Op
	}
	return nil, token.ILLEGAL
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// CondContainsNilCheck walks a condition expression (possibly an &&/||
// chain) and reports whether any leaf is a nil comparison, with the given
// operator, whose operand satisfies pred.
func CondContainsNilCheck(cond ast.Expr, op token.Token, pred func(ast.Expr) bool) bool {
	cond = ast.Unparen(cond)
	if b, ok := cond.(*ast.BinaryExpr); ok && (b.Op == token.LAND || b.Op == token.LOR) {
		return CondContainsNilCheck(b.X, op, pred) || CondContainsNilCheck(b.Y, op, pred)
	}
	if operand, got := NilComparison(cond); operand != nil && got == op {
		return pred(operand)
	}
	return false
}

// IsTestFile reports whether the file's position is in a _test.go file.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
