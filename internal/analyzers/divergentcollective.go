package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
)

// collectiveFuncs maps "pkgpath.Name" to a short description for every
// primitive that is collective over its communicator: all member ranks
// must call it, in the same order, or the world deadlocks. (Broadcast
// is absent — it is an asynchronous send, not a collective; TestEmpty
// is absent — it is the nonblocking probe designed for divergent use.)
var collectiveFuncs = map[string]string{
	"ygm/internal/ygm.WaitEmpty":              "quiescence barrier",
	"ygm/internal/ygm.Exchange":               "synchronous exchange",
	"ygm/internal/ygm.ExchangeUntilQuiet":     "synchronous exchange loop",
	"ygm/internal/collective.Barrier":         "barrier",
	"ygm/internal/collective.Bcast":           "broadcast collective",
	"ygm/internal/collective.AllreduceU64":    "reduction",
	"ygm/internal/collective.ReduceF64":       "reduction",
	"ygm/internal/collective.AllreduceF64":    "reduction",
	"ygm/internal/collective.Alltoallv":       "all-to-all exchange",
	"ygm/internal/collective.AlltoallvPooled": "all-to-all exchange",
}

// rankSourceFuncs are the calls whose results differ across ranks:
// conditions derived from them partition the world.
var rankSourceFuncs = map[string]bool{
	"ygm/internal/transport.Rank":   true,
	"ygm/internal/transport.Node":   true,
	"ygm/internal/transport.Core":   true,
	"ygm/internal/collective.Index": true,
}

// Divergentcollective flags collective call sites that only some ranks
// reach: a Barrier/WaitEmpty/Alltoallv under an `if p.Rank() == 0`
// style guard hangs every rank that did enter the collective. A site is
// flagged when it is reachable from a branch on a rank-dependent
// condition but does not post-dominate that branch — i.e. the branch
// genuinely decides whether this rank participates. Post-dominating
// collectives (the every-path WaitEmpty after a rank-guarded send) are
// fine, as are branches on rank-agnostic data.
//
// Known false negatives, by design: rank-dependence is tracked through
// local assignments only (a rank stored in a struct field and read back
// is not seen), and only panic-free paths count.
var Divergentcollective = &Analyzer{
	Name: "divergentcollective",
	Doc:  "flag Barrier/WaitEmpty/Alltoallv and other collective call sites reachable only under rank-dependent conditions, which desynchronize the ranks",
	Run:  runDivergentcollective,
}

func runDivergentcollective(pass *Pass) []Finding {
	// The framework packages implement the collectives (and the
	// coordinator/member split inside them is the protocol itself); only
	// code built on top of them is checked.
	if trustedFrameworkPkgs[pass.Pkg.Path] {
		return nil
	}
	var findings []Finding
	sums := newSummarizer(pass)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDivergence(pass, sums, fd.Body, &findings)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkDivergence(pass, sums, lit.Body, &findings)
				}
				return true
			})
		}
	}
	return findings
}

// checkDivergence analyzes one function body.
func checkDivergence(pass *Pass, sums *summarizer, body *ast.BlockStmt, findings *[]Finding) {
	info := pass.Pkg.Info
	tainted := rankTaintedVars(pass.Pkg, body)

	g := buildCFG(body, info)
	pdom := postDominators(g)

	// exprIsRankDependent reports whether e reads a tainted variable or
	// calls a rank source directly.
	exprIsRankDependent := func(e ast.Expr) bool {
		return rankDependentExpr(pass.Pkg, tainted, e)
	}

	// Collect the branch blocks with rank-dependent conditions and the
	// collective call sites with their containing blocks.
	type site struct {
		call *ast.CallExpr
		fn   *types.Func
		desc string
	}
	var branches []*cfgBlock
	sites := make(map[*cfgBlock][]site)
	for _, b := range g.blocks {
		if b.cond != nil && len(b.succs) == 2 && exprIsRankDependent(b.cond) {
			branches = append(branches, b)
		}
		for _, n := range b.nodes {
			blk := b
			ast.Inspect(n, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false // analyzed as its own body
				case *ast.CallExpr:
					fn := calleeOf(info, x)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					key := fn.Pkg().Path() + "." + fn.Name()
					if desc := collectiveFuncs[key]; desc != "" {
						sites[blk] = append(sites[blk], site{x, fn, desc})
					} else if !trustedFrameworkPkgs[fn.Pkg().Path()] && sums.performsCollective(fn) {
						sites[blk] = append(sites[blk], site{x, fn, "helper performing a collective"})
					}
				}
				return true
			})
		}
	}
	if len(branches) == 0 || len(sites) == 0 {
		return
	}

	dedup := make(map[*ast.CallExpr]bool)
	for _, br := range branches {
		for blk, ss := range sites {
			// Flag sites control-dependent on the rank branch (Ferrante et
			// al.): the site post-dominates one successor of the branch but
			// not the branch itself — so this branch genuinely decides
			// whether the collective runs. Plain reachability is too strong
			// in loops: a collective earlier in the enclosing loop body is
			// reachable from the branch via the back edge without being
			// conditioned on it.
			if pd, ok := pdom[br]; ok && pd[blk] {
				continue // on every normal path: all ranks still agree
			}
			depends := false
			for _, succ := range br.succs {
				if succ == blk {
					depends = true
					break
				}
				if pd, ok := pdom[succ]; ok && pd[blk] {
					depends = true
					break
				}
			}
			if !depends {
				continue
			}
			for _, s := range ss {
				if dedup[s.call] {
					continue
				}
				dedup[s.call] = true
				pos := pass.Pkg.Fset.Position(s.call.Pos())
				condPos := pass.Pkg.Fset.Position(br.cond.Pos())
				msg := fmt.Sprintf("%s (%s) is reached only under the rank-dependent condition at %s:%d; collectives must be called unconditionally by every member rank",
					s.fn.Name(), s.desc, shortFile(condPos.Filename), condPos.Line)
				*findings = append(*findings, Finding{Pos: pos, Analyzer: "divergentcollective", Message: msg})
			}
		}
	}
}

// rankDependentExpr reports whether e reads a tainted variable or calls
// a rank source, treating non-conversion calls as sanitizers: a tainted
// value passed as an argument does not taint the call's result (the
// helper's error/result is usually rank-symmetric even when its data
// input is not — following MPI-Checker, only direct rank arithmetic
// counts). Conversions like int(p.Rank()) pass taint through.
func rankDependentExpr(pkg *Package, tainted map[*types.Var]bool, e ast.Expr) bool {
	info := pkg.Info
	dependent := false
	ast.Inspect(e, func(n ast.Node) bool {
		if dependent {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && tainted[v] {
				dependent = true
			}
		case *ast.CallExpr:
			if fn := calleeOf(info, x); fn != nil && fn.Pkg() != nil &&
				rankSourceFuncs[fn.Pkg().Path()+"."+fn.Name()] {
				dependent = true
				return false
			}
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion: operand taint passes through
			}
			return false // sanitizing call boundary
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return dependent
}

// rankTaintedVars computes the set of local variables (transitively)
// derived from rank-identity calls, by iterating the body's assignments
// to a fixpoint.
func rankTaintedVars(pkg *Package, body *ast.BlockStmt) map[*types.Var]bool {
	info := pkg.Info
	tainted := make(map[*types.Var]bool)

	exprTainted := func(e ast.Expr) bool {
		return rankDependentExpr(pkg, tainted, e)
	}
	markLhs := func(lhs ast.Expr) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !tainted[v] {
			tainted[v] = true
			return true
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						if exprTainted(s.Rhs[i]) && markLhs(s.Lhs[i]) {
							changed = true
						}
					}
				} else {
					any := false
					for _, r := range s.Rhs {
						if exprTainted(r) {
							any = true
						}
					}
					if any {
						for _, l := range s.Lhs {
							if markLhs(l) {
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					var rhs ast.Expr
					if i < len(s.Values) {
						rhs = s.Values[i]
					} else if len(s.Values) == 1 {
						rhs = s.Values[0]
					}
					if rhs != nil && exprTainted(rhs) && markLhs(name) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}
