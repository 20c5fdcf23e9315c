package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the import path ("ygm/internal/transport", or a synthetic
	// path for fixture packages loaded with LoadDir).
	Path string
	// Dir is the directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the module's packages using only the
// standard library: module-internal imports resolve against packages the
// loader has already checked, and standard-library imports are
// type-checked from $GOROOT/src by go/importer's "source" mode. Test
// files are not loaded.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader returns a loader rooted at the directory containing go.mod.
// It selects files as the default build context does (no extra tags).
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analyzers: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analyzers: no module directive in %s", gomod)
}

// Packages returns every module package loaded so far, sorted by path.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LoadAll discovers, parses and type-checks every package under the
// module root (skipping testdata, hidden and underscore directories) and
// returns them sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analyzers: walking module: %w", err)
	}

	type parsed struct {
		path    string
		dir     string
		files   []*ast.File
		imports map[string]bool
	}
	byPath := make(map[string]*parsed)
	var order []string
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("analyzers: scanning %s: %w", dir, err)
		}
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		impPath := l.ModulePath
		if rel != "." {
			impPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{path: impPath, dir: dir, imports: make(map[string]bool)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analyzers: %w", err)
			}
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				if ip, err := strconv.Unquote(imp.Path.Value); err == nil {
					p.imports[ip] = true
				}
			}
		}
		byPath[impPath] = p
		order = append(order, impPath)
	}
	sort.Strings(order)

	// Type-check in dependency order (DFS over module-internal imports).
	var visit func(path string, stack []string) error
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	visit = func(path string, stack []string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analyzers: import cycle: %s", strings.Join(append(stack, path), " -> "))
		case 2:
			return nil
		}
		state[path] = 1
		p := byPath[path]
		for imp := range p.imports {
			if byPath[imp] != nil {
				if err := visit(imp, append(stack, path)); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		pkg, err := l.check(p.path, p.dir, p.files)
		if err != nil {
			return err
		}
		l.pkgs[path] = pkg
		return nil
	}
	for _, path := range order {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	return l.Packages(), nil
}

// LoadDir parses and type-checks one extra directory (e.g. an analyzer
// test fixture under testdata) as the given synthetic import path. The
// module's packages must have been loaded first so the fixture's
// module-internal imports resolve.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analyzers: scanning %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		files = append(files, f)
	}
	return l.check(importPath, dir, files)
}

// check runs the type checker over one package's files.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err)
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("analyzers: type errors in %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import implements types.Importer: module-internal paths resolve to
// already-checked packages, everything else is delegated to the
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		if p, ok := l.pkgs[path]; ok {
			return p.Types, nil
		}
		return nil, fmt.Errorf("analyzers: module package %s not loaded (dependency order bug?)", path)
	}
	return l.std.Import(path)
}
