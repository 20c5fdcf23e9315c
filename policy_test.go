package ygm_test

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// hostClock are the time functions that read or wait on the host clock.
// Ranks live in virtual time: what a rank observes must come from the
// netsim cost model, or simulated results depend on host scheduling.
var hostClock = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true, "NewTicker": true, "NewTimer": true}

// rankPackages hold only code that runs on ranks.
var rankPackages = map[string]bool{"internal/ygm": true, "internal/collective": true,
	"internal/container": true, "internal/apps": true, "internal/combblas": true}

// hostClockSites are the transport functions that may use the host clock.
var hostClockSites = map[string]string{
	"wire.go hostNow":             "anchors a real-time epoch or a handshake deadline, once per run",
	"wire.go hostSince":           "takes every real-time stamp, at the budget TestHostClockReads pins",
	"tcpwire.go rendezvousRoot":   "waits out a previous run's socket before listening again",
	"tcpwire.go rendezvousClient": "retries the dial until rank 0 listens",
	"watchdog.go watchdog":        "ticks the deadlock watchdog, which watches ranks from outside",
}

// TestSourcePolicy parses every non-test file of the module (benchmark/
// is a module of its own) and rejects a dot-import of time or math/rand,
// a math/rand function other than a seeded-source constructor, and a
// host-clock call in rank code or in transport outside hostClockSites.
func TestSourcePolicy(t *testing.T) {
	randOK := map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
		"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true} // and their types
	used := map[string]bool{}
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != "." && (path == "benchmark" || d.Name() == "testdata" || d.Name()[0] == '.') {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := map[string]string{} // local name -> "time" or "rand"
		for _, imp := range f.Imports {
			pkg := map[string]string{`"time"`: "time", `"math/rand"`: "rand", `"math/rand/v2"`: "rand"}[imp.Path.Value]
			name := cmp.Or(imp.Name, ast.NewIdent(pkg)).Name
			if local[name] = pkg; name == "." && pkg != "" {
				t.Errorf("%s: dot-import of %s", fset.Position(imp.Pos()), imp.Path.Value)
			}
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			site := filepath.Base(path) + " "
			if fn, ok := decl.(*ast.FuncDecl); ok {
				site += fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					x, _ := sel.X.(*ast.Ident) // String is "<nil>" when X is no identifier
					pkg, fn, at := local[x.String()], sel.Sel.Name, fset.Position(sel.Pos())
					switch clock := pkg == "time" && hostClock[fn]; {
					case pkg == "rand" && !randOK[fn]:
						t.Errorf("%s: rand.%s draws from the global source; use a seeded *rand.Rand", at, fn)
					case clock && rankPackages[dir]:
						t.Errorf("%s: time.%s in rank code, which runs on virtual time", at, fn)
					case clock && dir == "internal/transport":
						if used[site] = true; hostClockSites[site] == "" {
							t.Errorf("%s: time.%s in %s, not one of transport's host-clock sites", at, fn, site)
						}
					}
				}
				return true
			})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for site := range hostClockSites {
		if !used[site] {
			t.Errorf("host-clock site %s reads no clock; drop it from hostClockSites", site)
		}
	}
}
