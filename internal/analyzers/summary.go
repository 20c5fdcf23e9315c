package analyzers

// summary.go computes consume summaries on demand, so buflifetime can
// follow a pooled buffer or packet through module helpers (take,
// processPacket, parseRecord, ...) without inlining whole call chains.
// Summaries are per (function, parameter): does the callee read,
// release, or lose track of a value handed to it in that position?
// Results are memoized per analyzer run; recursion resolves to the
// conservative answer (effEscapes).

import (
	"go/ast"
	"go/types"
)

// consumeEffect classifies what a callee does with a pooled buffer or
// packet passed in one parameter position.
type consumeEffect int

const (
	// effReads: the callee only reads the value; the caller still owns it.
	effReads consumeEffect = iota
	// effConsumes: the callee releases it (SendPooled/Recycle/Detach) on
	// every normal path; the caller must not touch it again.
	effConsumes
	// effEscapes: the callee stores or forwards it somewhere the analysis
	// cannot follow; the caller stops tracking (never reported).
	effEscapes
)

type sumKey struct {
	fn  *types.Func
	idx int // combined parameter index: receiver (if any) first
}

// summarizer memoizes per-(function,param) summaries for one analyzer
// run.
type summarizer struct {
	pass      *Pass
	consume   map[sumKey]consumeEffect
	inConsume map[sumKey]bool
}

func newSummarizer(pass *Pass) *summarizer {
	return &summarizer{
		pass:      pass,
		consume:   make(map[sumKey]consumeEffect),
		inConsume: make(map[sumKey]bool),
	}
}

// combinedParams flattens a declaration's receiver and parameter names
// into the combined index space used by sumKey. Unnamed and blank
// positions are nil.
func combinedParams(pkg *Package, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	addField := func(f *ast.Field) {
		if len(f.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			} else {
				out = append(out, nil)
			}
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			addField(f)
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			addField(f)
		}
	}
	return out
}

// callArgIndex maps one argument position of call (resolved to fn) to
// the combined parameter index, accounting for methods (receiver is
// index 0), method expressions (the receiver travels as args[0]), and
// variadic parameters. It returns -1 when the mapping is unclear.
func callArgIndex(info *types.Info, call *ast.CallExpr, fn *types.Func, argPos int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	shift := 0
	if sig.Recv() != nil {
		if isMethodExpr(info, call) {
			// Type.Method(recv, args...): args[0] is the receiver.
			if argPos == 0 {
				return 0
			}
			argPos--
		}
		shift = 1
	}
	params := sig.Params()
	idx := argPos
	if sig.Variadic() && idx >= params.Len()-1 {
		idx = params.Len() - 1
	}
	if idx >= params.Len() {
		return -1
	}
	return shift + idx
}

// receiverIndex returns the combined index of the receiver expression of
// a normal method call, or -1 when fn has no receiver or the call is a
// method expression.
func receiverIndex(info *types.Info, call *ast.CallExpr, fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || isMethodExpr(info, call) {
		return -1
	}
	return 0
}

// isMethodExpr reports whether call invokes a method expression
// (T.Method(recv, ...)) rather than a bound method value.
func isMethodExpr(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return true // pkg-level ident resolving to a method: treat as expr
	}
	tv, ok := info.Types[sel.X]
	return ok && tv.IsType()
}

// consumeEffectOf returns the consume summary for parameter idx of fn,
// running the buflifetime transfer over the callee in summary mode on
// first use. Unknown or recursive callees answer effEscapes so the
// caller silently stops tracking.
func (s *summarizer) consumeEffectOf(fn *types.Func, idx int) consumeEffect {
	key := sumKey{fn, idx}
	if eff, ok := s.consume[key]; ok {
		return eff
	}
	if s.inConsume[key] {
		return effEscapes
	}
	decl := s.pass.Index.Lookup(fn)
	if decl == nil || idx < 0 {
		return effEscapes
	}
	params := combinedParams(decl.Pkg, decl.Decl)
	if idx >= len(params) || params[idx] == nil {
		s.consume[key] = effReads
		return effReads
	}
	s.inConsume[key] = true
	eff := summarizeConsume(s, decl, params[idx])
	delete(s.inConsume, key)
	s.consume[key] = eff
	return eff
}
