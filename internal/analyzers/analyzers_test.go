package analyzers

import (
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// The module is loaded once and shared across tests: type-checking the
// standard library through the source importer dominates the cost.
var (
	loadOnce sync.Once
	loadLdr  *Loader
	loadPkgs []*Package
	loadErr  error
)

func modulePackages(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	loadOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loadErr = err
			return
		}
		if loadLdr, loadErr = NewLoader(root); loadErr != nil {
			return
		}
		loadPkgs, loadErr = loadLdr.LoadAll()
	})
	if loadErr != nil {
		t.Fatalf("loading module: %v", loadErr)
	}
	return loadLdr, loadPkgs
}

// wantRe extracts expectations of the form `// want `regexp“ from
// fixture comments.
var wantRe = regexp.MustCompile("want `([^`]+)`")

type expectation struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &expectation{line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/<name>, runs one analyzer over it, and diffs
// the findings against the fixture's want-comments.
func runFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	ldr, _ := modulePackages(t)
	fix, err := ldr.LoadDir(filepath.Join("testdata", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := Run([]*Package{fix}, []*Analyzer{a}, nil)
	wants := parseWants(t, fix)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want-comments", name)
	}

	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("line %d: expected a finding matching %q, got none", w.line, w.re)
		}
	}
}

func TestWallclockFixture(t *testing.T) { runFixture(t, "wallclock", Wallclock) }
func TestSeedrandFixture(t *testing.T)  { runFixture(t, "seedrand", Seedrand) }
func TestCodecerrFixture(t *testing.T)  { runFixture(t, "codecerr", Codecerr) }

// TestSuppressFixture exercises the ygmvet:ignore directive forms:
// block comments, scoped names, and the unknown-name diagnostic, with
// the wallclock analyzer providing the findings being suppressed.
func TestSuppressFixture(t *testing.T) { runFixture(t, "suppress", Wallclock) }

// TestRepoClean pins the tree to zero findings under the production
// scope — the same invocation CI runs through cmd/ygmvet.
func TestRepoClean(t *testing.T) {
	_, pkgs := modulePackages(t)
	findings := Run(pkgs, All(), DefaultScope)
	for _, f := range findings {
		t.Errorf("repo not ygmvet-clean: %s", f)
	}
}

// TestSuiteRegistered pins the suite's composition: every analyzer is
// present and named for suppression directives.
func TestSuiteRegistered(t *testing.T) {
	got := make(map[string]bool)
	for _, a := range All() {
		got[a.Name] = true
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run function", a.Name)
		}
	}
	for _, name := range []string{"wallclock", "seedrand", "codecerr"} {
		if !got[name] {
			t.Errorf("analyzer %s not registered in All()", name)
		}
	}
}
