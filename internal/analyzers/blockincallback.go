package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ygmPkg is the package that declares the Handler callback type.
const ygmPkg = "ygm/internal/ygm"

// blockingFuncs maps "pkgpath.Name" to a short reason for every exported
// primitive that parks the calling rank until other ranks make progress.
// A mailbox receive callback runs inside message delivery: if it invokes
// one of these, the rank waits on peers while peers wait on its delivery
// loop, and the whole world deadlocks (the transport watchdog catches
// this at runtime; here it is caught at vet time).
var blockingFuncs = map[string]string{
	"ygm/internal/ygm.WaitEmpty":              "waits for global mailbox quiescence",
	"ygm/internal/ygm.TestEmpty":              "runs a termination-detection round",
	"ygm/internal/ygm.Exchange":               "is a synchronous all-ranks exchange",
	"ygm/internal/ygm.ExchangeUntilQuiet":     "is a synchronous all-ranks exchange",
	"ygm/internal/transport.Recv":             "blocks until a packet arrives",
	"ygm/internal/transport.WaitPop":          "blocks until a packet arrives",
	"ygm/internal/transport.WaitAny":          "blocks until a packet arrives",
	"ygm/internal/collective.Barrier":         "is a blocking collective",
	"ygm/internal/collective.Bcast":           "is a blocking collective",
	"ygm/internal/collective.AllreduceU64":    "is a blocking collective",
	"ygm/internal/collective.ReduceF64":       "is a blocking collective",
	"ygm/internal/collective.AllreduceF64":    "is a blocking collective",
	"ygm/internal/collective.Alltoallv":       "is a blocking collective",
	"ygm/internal/collective.AlltoallvPooled": "is a blocking collective",
}

// trustedFrameworkPkgs are packages whose internals the walk does not
// descend into: the framework is allowed to block in its own machinery
// (that is what WaitEmpty is), so only *direct* calls to the blocklist
// from user code count. Descending would flag every handler that merely
// sends, because Send reaches the delivery loop.
var trustedFrameworkPkgs = map[string]bool{
	"ygm/internal/ygm":        true,
	"ygm/internal/transport":  true,
	"ygm/internal/collective": true,
}

// Blockincallback flags blocking primitives reachable from mailbox
// receive callbacks. Roots are function literals or references used as
// ygm.Handler values (handler arguments, Handler(...) conversions,
// Handler-typed variables); the walk follows static calls through the
// loaded module's call graph.
var Blockincallback = &Analyzer{
	Name: "blockincallback",
	Doc:  "flag WaitEmpty/Barrier/Recv and other rank-blocking primitives reachable from mailbox receive callbacks, which deadlock the world at runtime",
	Run:  runBlockincallback,
}

func runBlockincallback(pass *Pass) []Finding {
	w := &callbackWalker{
		pass:    pass,
		visited: make(map[types.Object]bool),
		dedup:   make(map[string]bool),
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				w.rootsFromCall(node)
			case *ast.ValueSpec:
				if node.Type != nil && isHandlerType(pass.Pkg.Info.Types[node.Type].Type) {
					for _, v := range node.Values {
						w.walkRoot(v, pass.Pkg)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range node.Rhs {
					if i < len(node.Lhs) && isHandlerType(pass.Pkg.Info.Types[node.Lhs[i]].Type) {
						w.walkRoot(rhs, pass.Pkg)
					}
				}
			}
			return true
		})
	}
	return w.findings
}

// isHandlerType reports whether t is the named type ygm.Handler.
func isHandlerType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Handler" && obj.Pkg() != nil && obj.Pkg().Path() == ygmPkg
}

type callbackWalker struct {
	pass     *Pass
	visited  map[types.Object]bool
	dedup    map[string]bool
	findings []Finding
}

// rootsFromCall extracts handler roots from one call expression: either
// a Handler(...) conversion, or arguments whose parameter type is
// Handler.
func (w *callbackWalker) rootsFromCall(call *ast.CallExpr) {
	info := w.pass.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if isHandlerType(tv.Type) && len(call.Args) == 1 {
			w.walkRoot(call.Args[0], w.pass.Pkg)
		}
		return
	}
	fn := calleeOf(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		idx := i
		if sig.Variadic() && idx >= params.Len()-1 {
			idx = params.Len() - 1
		}
		if idx >= params.Len() {
			break
		}
		pt := params.At(idx).Type()
		if sig.Variadic() && idx == params.Len()-1 {
			if slice, ok := pt.(*types.Slice); ok && !hasEllipsis(call) {
				pt = slice.Elem()
			}
		}
		if isHandlerType(pt) {
			w.walkRoot(arg, w.pass.Pkg)
		}
	}
}

func hasEllipsis(call *ast.CallExpr) bool { return call.Ellipsis.IsValid() }

// walkRoot follows one handler-valued expression: a literal is walked in
// place, a function reference is resolved and its declaration walked.
func (w *callbackWalker) walkRoot(expr ast.Expr, pkg *Package) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		pos := pkg.Fset.Position(e.Pos())
		root := fmt.Sprintf("handler literal at %s:%d", shortFile(pos.Filename), pos.Line)
		w.walkBody(e.Body, pkg, root, nil)
	case *ast.Ident, *ast.SelectorExpr:
		if fn := refTarget(pkg.Info, e); fn != nil {
			w.walkFunc(fn, fmt.Sprintf("handler %s", fn.Name()), nil)
		}
	}
}

// refTarget resolves an identifier or selector used as a function value.
func refTarget(info *types.Info, e ast.Expr) *types.Func {
	switch v := e.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// walkFunc walks into a module-declared function unless it lives in a
// trusted framework package or was already visited.
func (w *callbackWalker) walkFunc(fn *types.Func, root string, path []string) {
	if w.visited[fn] {
		return
	}
	w.visited[fn] = true
	decl := w.pass.Index.Lookup(fn)
	if decl == nil {
		return
	}
	w.walkBody(decl.Decl.Body, decl.Pkg, root, append(path, fn.Name()))
}

// walkBody scans one function body for blocking calls and recurses into
// static callees.
func (w *callbackWalker) walkBody(body *ast.BlockStmt, pkg *Package, root string, path []string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		key := fn.Pkg().Path() + "." + fn.Name()
		if reason, blocked := blockingFuncs[key]; blocked {
			w.report(pkg, call, fn, reason, root, path)
			return true
		}
		if !trustedFrameworkPkgs[fn.Pkg().Path()] {
			w.walkFunc(fn, root, path)
		}
		return true
	})
}

func (w *callbackWalker) report(pkg *Package, call *ast.CallExpr, fn *types.Func, reason, root string, path []string) {
	pos := pkg.Fset.Position(call.Pos())
	via := ""
	if len(path) > 0 {
		via = fmt.Sprintf(" (reached via %s)", strings.Join(path, " -> "))
	}
	msg := fmt.Sprintf("%s %s and must not be reachable from a mailbox receive callback (%s)%s",
		fn.Name(), reason, root, via)
	key := fmt.Sprintf("%s:%d:%d:%s", pos.Filename, pos.Line, pos.Column, msg)
	if w.dedup[key] {
		return
	}
	w.dedup[key] = true
	w.findings = append(w.findings, Finding{Pos: pos, Analyzer: "blockincallback", Message: msg})
}

// shortFile trims the path to its last two components for readable root
// descriptions.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
