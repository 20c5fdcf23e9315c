// Command ygmvet runs the repository's static-analysis suite
// (internal/analyzers: the wallclock, seedrand and codecerr AST walks)
// over the whole module. It is stdlib-only: no go/packages, no x/tools —
// the module is parsed and type-checked with go/parser and go/types
// directly. Packet and buffer release is not a vet rule: transport.Run
// checks it at run end (PacketLeakError).
//
// Usage:
//
//	go run ./cmd/ygmvet ./...
//
// Exit status: 0 clean, 1 findings, 2 load or usage error. The only
// accepted package pattern is "./..." (the suite is whole-module by
// design); with no arguments "./..." is implied.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ygm/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, loads the module,
// runs the suite, and prints findings to stdout. It returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ygmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root directory (must contain go.mod)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ygmvet [-C dir] [./...]\n\nAnalyzers (AST walks; packet release is checked by transport.Run, not here):\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, arg := range fs.Args() {
		if arg != "./..." {
			fmt.Fprintf(stderr, "ygmvet: unsupported package pattern %q (the suite is whole-module; use ./... or no argument)\n", arg)
			return 2
		}
	}

	root, err := moduleRoot(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "ygmvet: %v\n", err)
		return 2
	}
	loader, err := analyzers.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "ygmvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(stderr, "ygmvet: %v\n", err)
		return 2
	}

	findings := analyzers.Run(pkgs, analyzers.All(), analyzers.DefaultScope)
	for _, f := range findings {
		fmt.Fprintln(stdout, relativize(f, root))
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "ygmvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleRoot walks upward from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}

// relativize prints a finding with its filename relative to the module
// root, matching go vet's output style.
func relativize(f analyzers.Finding, root string) string {
	if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		f.Pos.Filename = rel
	}
	return f.String()
}
