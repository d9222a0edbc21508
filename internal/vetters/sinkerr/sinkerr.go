// Package sinkerr defines an analyzer enforcing the trace-sink error
// contract: every error returned by a sink on the trace write path —
// Sink.Add, ColSink.AddCols, and the Flush/Close of any type
// implementing those interfaces — must be consumed. A dropped sink
// error truncates or corrupts a trace file silently, and everything
// downstream (characterization, model fitting, replay) then analyzes
// data that was never written; Recorder and TraceTracker both report
// exactly this class of silent-corruption bug in trace tooling.
//
// Discarding explicitly with `_ = sink.Close()` is accepted as a
// visible decision; calling the method as a bare statement, or in a
// defer/go statement where the result vanishes, is flagged.
package sinkerr

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"essio/internal/vetters/vetutil"
)

// name is the analyzer name, referenced from run without creating an
// initialization cycle through Analyzer.
const name = "sinkerr"

// Analyzer is the sinkerr analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "flag discarded errors from trace sink Add/AddCols/Flush/Close calls\n\n" +
		"Sinks report encoding and I/O failures through their error result; a\n" +
		"call that drops it lets a truncated or unwritten trace pass silently\n" +
		"into analysis. Errors must be checked or explicitly assigned to _.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// checked are the method names the analyzer audits.
var checked = map[string]bool{"Add": true, "AddCols": true, "Flush": true, "Close": true}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ignores := vetutil.ParseIgnores(pass)

	nodes := []ast.Node{(*ast.ExprStmt)(nil), (*ast.DeferStmt)(nil), (*ast.GoStmt)(nil)}
	ins.Preorder(nodes, func(n ast.Node) {
		var call *ast.CallExpr
		var ok bool
		kind := ""
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, ok = st.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call, ok, kind = st.Call, true, "defer "
		case *ast.GoStmt:
			call, ok, kind = st.Call, true, "go "
		}
		if !ok || call == nil {
			return
		}
		// Callee, not StaticCallee: calls through the Sink and ColSink
		// interfaces drop errors just as silently as concrete ones.
		fn, _ := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if fn == nil || !checked[fn.Name()] || !isSinkMethod(fn) {
			return
		}
		if vetutil.InTestFile(pass.Fset, call.Pos()) ||
			ignores.Suppressed(call.Pos(), name) {
			return
		}
		pass.Reportf(call.Pos(),
			"%serror result of (%s).%s is discarded; a failed trace write would pass silently (check it or assign to _)",
			kind, recvTypeString(fn), fn.Name())
	})
	return nil, nil
}

// isSinkMethod reports whether fn is an error-returning method of a
// type that belongs to a trace package and implements its Sink or
// ColSink interface.
func isSinkMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return false
	}
	pkg := fn.Pkg()
	if pkg == nil || !isTracePkg(pkg.Path()) {
		return false
	}
	recv := sig.Recv().Type()
	for _, name := range []string{"Sink", "ColSink"} {
		obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// isTracePkg reports whether path names this repo's trace package (or a
// test stub laid out the same way).
func isTracePkg(path string) bool {
	return path == "trace" || len(path) > 6 && path[len(path)-6:] == "/trace"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// recvTypeString renders the receiver type for diagnostics.
func recvTypeString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	return types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg()))
}
