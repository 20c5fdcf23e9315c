package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
)

// seedrandAllowed are the math/rand package-level functions that
// construct seeded sources rather than draw from the global one.
var seedrandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// Seedrand flags draws from math/rand's implicit global source
// (rand.Intn, rand.Float64, rand.Shuffle, ...). The global source is
// shared process state: two ranks interleaving draws make every run
// schedule-dependent, which breaks the determinism EXPERIMENTS.md
// depends on. All randomness must flow from seeded per-rank sources —
// rand.New(rand.NewSource(seed)) construction stays legal, as do
// methods on an explicit *rand.Rand.
var Seedrand = &Analyzer{
	Name: "seedrand",
	Doc:  "flag package-level math/rand draws (global, unseeded source); randomness must come from seeded per-rank *rand.Rand values",
	Run:  runSeedrand,
}

func runSeedrand(pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				// Methods on an explicit *rand.Rand are the seeded,
				// per-rank pattern this rule exists to protect.
				return true
			}
			if seedrandAllowed[fn.Name()] {
				return true
			}
			findings = append(findings, Finding{
				Pos:      pkg.Fset.Position(sel.Pos()),
				Analyzer: "seedrand",
				Message: fmt.Sprintf("rand.%s draws from the process-global source; use a seeded per-rank source (Proc.Rng or rand.New(rand.NewSource(seed)))",
					fn.Name()),
			})
			return true
		})
	}
	return findings
}
