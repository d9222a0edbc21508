// Package spanretain defines an analyzer enforcing the zero-copy view
// contract of the columnar batch layer: the *ColBatch views handed out
// by the NextCols/nextCols methods of trace sources, and the batch
// passed into an AddCols implementation, alias reused column buffers
// (or a read-only mmap window), as do the column slices selected from
// them (view.Times, view.Sectors, ...). They are valid only until the
// next call into the source; retaining one — storing it in a struct
// field or global, sending it on a channel, stashing it in a map, or
// capturing it in a closure that outlives the call — aliases memory that
// the next refill silently overwrites. The bug never crashes: the
// retained view just starts describing different records.
//
// The analyzer tracks, within each function body,
//
//   - variables bound to the result of a NextCols/nextCols call on a
//     trace-package type, and
//   - the pointer parameter of an AddCols method implementation
//     (ColSink documents "cols must not be retained"),
//
// including aliases made by plain assignment, re-slicing, or column
// selection, and flags any retention point. Escaping the view on
// purpose (an adapter that forwards it under the same contract) is
// suppressed with //essvet:ignore spanretain.
package spanretain

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"essio/internal/vetters/vetutil"
)

// name is the analyzer name, referenced from run without creating an
// initialization cycle through Analyzer.
const name = "spanretain"

// Analyzer is the spanretain analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "flag retention of zero-copy column views from the trace batch layer\n\n" +
		"Column views returned by NextCols and batches passed to AddCols are backed\n" +
		"by reused decode buffers (or read-only mmap windows) and are invalid after\n" +
		"the next source call; storing them in fields, globals, maps, or channels,\n" +
		"or capturing them in escaping closures, aliases memory the next refill\n" +
		"overwrites. Copy first.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ignores := vetutil.ParseIgnores(pass)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		tracked := make(map[types.Object]bool)
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			body = fn.Body
			if fn.Recv != nil && fn.Name.Name == "AddCols" {
				trackBatchParam(pass, fn, tracked)
			}
		case *ast.FuncLit:
			body = fn.Body
		}
		if vetutil.InTestFile(pass.Fset, body.Pos()) {
			return
		}
		collectViewVars(pass, body, tracked)
		if len(tracked) == 0 {
			return
		}
		checkRetention(pass, ignores, body, tracked)
	})
	return nil, nil
}

// trackBatchParam marks the batch parameter of an AddCols (*ColBatch)
// method implementing the trace sink contract.
func trackBatchParam(pass *analysis.Pass, fn *ast.FuncDecl, tracked map[types.Object]bool) {
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 {
		return
	}
	if _, ok := sig.Params().At(0).Type().Underlying().(*types.Pointer); !ok {
		return
	}
	if len(fn.Type.Params.List) == 1 && len(fn.Type.Params.List[0].Names) == 1 {
		if v, ok := pass.TypesInfo.Defs[fn.Type.Params.List[0].Names[0]].(*types.Var); ok {
			tracked[v] = true
		}
	}
}

// collectViewVars finds variables bound to NextCols results and their
// aliases, iterating assignments to a fixpoint within the body.
func collectViewVars(pass *analysis.Pass, body *ast.BlockStmt, tracked map[types.Object]bool) {
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) < 1 || len(as.Rhs) < 1 {
				return true
			}
			// view, err := src.NextCols(n)  — the view is Lhs[0].
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && len(as.Rhs) == 1 && isViewCall(pass, call) {
				if vetutil.Mark(pass.TypesInfo, as.Lhs[0], tracked) {
					grew = true
				}
				return true
			}
			// alias := view   or   alias := view.Sectors[i:j]
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if vetutil.IsTracked(pass.TypesInfo, rhs, tracked) {
						if id, ok := as.Lhs[i].(*ast.Ident); ok {
							if vetutil.Mark(pass.TypesInfo, id, tracked) {
								grew = true
							}
						}
					}
				}
			}
			return true
		})
		if !grew {
			return
		}
	}
}

// isViewCall reports whether call invokes a view-returning NextCols
// method declared in a trace package.
func isViewCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	return vetutil.TraceMethodCall(pass.TypesInfo, call, "NextCols", "nextCols")
}

// checkRetention reports every point where a tracked view escapes the
// call frame.
func checkRetention(pass *analysis.Pass, ignores *vetutil.Ignores, body *ast.BlockStmt, tracked map[types.Object]bool) {
	report := func(pos ast.Node, what string) {
		if ignores.Suppressed(pos.Pos(), name) {
			return
		}
		pass.Reportf(pos.Pos(),
			"zero-copy column view %s; the backing columns are reused on the next source call — copy the records first (view.AppendTo or AppendCols)", what)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !vetutil.IsTracked(pass.TypesInfo, rhs, tracked) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					report(n, "stored in a struct field")
				case *ast.IndexExpr:
					report(n, "stored in a map or slice element")
				case *ast.Ident:
					if v, ok := pass.TypesInfo.ObjectOf(lhs).(*types.Var); ok && isPkgLevel(v) {
						report(n, "stored in a package-level variable")
					}
				}
			}
		case *ast.SendStmt:
			if vetutil.IsTracked(pass.TypesInfo, n.Value, tracked) {
				report(n, "sent on a channel")
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if vetutil.IsTracked(pass.TypesInfo, e, tracked) {
					report(n, "stored in a composite literal")
				}
			}
		case *ast.CallExpr:
			// append(list, view.Sectors) stores the slice header itself;
			// append(dst, view.Sectors...) copies elements and is fine.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass, id) {
				for _, arg := range n.Args[min(1, len(n.Args)):] {
					if vetutil.IsTracked(pass.TypesInfo, arg, tracked) && n.Ellipsis == 0 {
						report(n, "appended as a slice value")
					}
				}
			}
		case *ast.DeferStmt:
			// A deferred or spawned closure runs after — or concurrently
			// with — further source calls, when the view is already stale.
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok && vetutil.CapturesTracked(pass.TypesInfo, fl, tracked) {
				report(n, "captured by a deferred closure that runs after the view is stale")
			}
		case *ast.GoStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok && vetutil.CapturesTracked(pass.TypesInfo, fl, tracked) {
				report(n, "captured by a goroutine racing the view's reuse")
			}
		case *ast.FuncLit:
			if vetutil.CapturesTracked(pass.TypesInfo, n, tracked) && !immediatelyInvoked(body, n) {
				report(n, "captured by a closure that may outlive the view")
			}
			return false // don't descend: inner body already scanned as its own function
		}
		return true
	})
}

// isBuiltin reports whether id resolves to the predeclared builtin of
// the same name rather than a shadowing declaration.
func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return true // conservatively builtin when unresolved
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// isPkgLevel reports whether v is declared at package scope.
func isPkgLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// immediatelyInvoked reports whether fl appears only as the function of
// a direct call (an IIFE), which cannot outlive the current statement.
func immediatelyInvoked(body *ast.BlockStmt, fl *ast.FuncLit) bool {
	invoked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == fl {
			invoked = true
		}
		return !invoked
	})
	return invoked
}
