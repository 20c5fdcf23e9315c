// Package analyzers is ygmvet's static-analysis suite: whole-module
// checks, built only on the standard library's go/ast, go/parser,
// go/token and go/types, for the correctness rules no compiler enforces
// and no runtime check catches.
//
// The simulation's validity rests on protocol-level invariants: ranks
// advance virtual clocks only (wall-clock reads would couple simulated
// time to host scheduling), all randomness flows from seeded per-rank
// sources (EXPERIMENTS.md reproducibility), and codec decode errors must
// not be dropped (silent corruption). Each analyzer is one walk over the
// type-checked AST that machine-checks one of these rules on every
// build; `go run ./cmd/ygmvet ./...` is wired into CI. Rules a runtime
// check already enforces (packet and buffer release, handler blocking,
// payload retention, rank-divergent collectives, rank confinement,
// hot-path allocation) are left to it: DESIGN.md §11 lists which.
//
// Findings on a line can be suppressed with a `//ygmvet:ignore name`
// comment on the same line or the line above (names comma-separated, or
// empty to suppress every analyzer); use sparingly and say why.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats a finding the way go vet does.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Package) []Finding
}

// All returns the full analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, Seedrand, Codecerr}
}

// knownAnalyzerNames is the set of valid names for ygmvet:ignore
// directives (so typos are diagnosed rather than silently ignored).
func knownAnalyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// simulatedRankPkgs are the packages whose code runs on simulated ranks,
// where only virtual time is legal. Harness code (cmd, examples, bench
// drivers) measures host time legitimately.
var simulatedRankPkgs = map[string]bool{
	"ygm/internal/transport":  true,
	"ygm/internal/ygm":        true,
	"ygm/internal/collective": true,
	"ygm/internal/container":  true,
	"ygm/internal/apps":       true,
	"ygm/internal/combblas":   true,
}

// DefaultScope is the production rule→package mapping used by cmd/ygmvet
// and the repo-clean test: wallclock applies only to simulated-rank
// packages, every other analyzer applies module-wide.
func DefaultScope(analyzer, pkgPath string) bool {
	if analyzer == Wallclock.Name {
		return simulatedRankPkgs[pkgPath]
	}
	return true
}

// Run applies each analyzer to each package its scope admits, filters
// suppressed findings, and returns the remainder sorted by position.
// scope may be nil to run everything everywhere.
func Run(pkgs []*Package, analyzers []*Analyzer, scope func(analyzer, pkgPath string) bool) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		sup, diags := suppressions(pkg)
		findings = append(findings, diags...)
		for _, a := range analyzers {
			if scope != nil && !scope(a.Name, pkg.Path) {
				continue
			}
			for _, f := range a.Run(pkg) {
				if !sup.match(f) {
					findings = append(findings, f)
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// suppressed records, per file and line, which analyzers are silenced.
type suppressed struct {
	// byLine maps file:line to silenced analyzer names; the empty name
	// silences all.
	byLine map[string]map[string]bool
}

func (s suppressed) match(f Finding) bool {
	names := s.byLine[fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)]
	return names[""] || names[f.Analyzer]
}

// suppressions scans a package's comments for ygmvet:ignore directives
// and returns the suppression table plus diagnostics for directives
// naming unknown analyzers. A `//` directive applies to its own line
// and to the line below it, so both trailing (`code //ygmvet:ignore
// name`) and leading placement work; a `/* ... */` directive covers
// every line the comment spans plus the line after it, so block-style
// leading comment groups work too. The scoped form `ygmvet:ignore
// <analyzer>` (names comma- or space-separated) silences only the named
// analyzers; a bare directive silences them all.
func suppressions(pkg *Package) (suppressed, []Finding) {
	s := suppressed{byLine: make(map[string]map[string]bool)}
	var diags []Finding
	known := knownAnalyzerNames()
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := c.Text
				if strings.HasPrefix(text, "/*") {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				} else {
					text = strings.TrimPrefix(text, "//")
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "ygmvet:ignore")
				if !ok {
					continue
				}
				// Drop any trailing justification after a dash.
				for _, sep := range []string{"—", "--", " - "} {
					if i := strings.Index(rest, sep); i >= 0 {
						rest = rest[:i]
					}
				}
				names := make(map[string]bool)
				fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' })
				if len(fields) == 0 {
					names[""] = true
				}
				for _, f := range fields {
					names[f] = true
					if !known[f] {
						pos := pkg.Fset.Position(c.Pos())
						diags = append(diags, Finding{
							Pos:      pos,
							Analyzer: "ygmvet",
							Message:  fmt.Sprintf("ygmvet:ignore names unknown analyzer %q; the finding it meant to suppress will still be reported", f),
						})
					}
				}
				start := pkg.Fset.Position(c.Pos())
				end := pkg.Fset.Position(c.End())
				for line := start.Line; line <= end.Line+1; line++ {
					key := fmt.Sprintf("%s:%d", start.Filename, line)
					if s.byLine[key] == nil {
						s.byLine[key] = make(map[string]bool)
					}
					for n := range names {
						s.byLine[key][n] = true
					}
				}
			}
		}
	}
	return s, diags
}

// calleeOf resolves the static callee of a call expression using the
// package's type info, or nil for dynamic calls (function values,
// immediately-invoked literals, builtins).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
