package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package-level time functions that read or wait
// on the host clock. Types and constants (time.Duration, time.Millisecond)
// stay legal: they describe durations without observing host time.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
}

// Wallclock flags host-clock reads and waits in simulated-rank code.
// Ranks live in virtual time: every duration they observe must come from
// the netsim cost model through the rank's netsim.Clock, or the
// experiment's timings silently become functions of host scheduling.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "flag time.Now/time.Since/time.Sleep (and friends) in simulated-rank code, where only netsim.Clock virtual time is legal",
	Run:  runWallclock,
}

func runWallclock(pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if !wallclockFuncs[fn.Name()] {
				return true
			}
			findings = append(findings, Finding{
				Pos:      pkg.Fset.Position(sel.Pos()),
				Analyzer: "wallclock",
				Message: fmt.Sprintf("wall-clock time.%s in simulated-rank code; ranks must use virtual time (netsim.Clock)",
					fn.Name()),
			})
			return true
		})
	}
	return findings
}
