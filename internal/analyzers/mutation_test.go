package analyzers

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutationSrc seeds exactly one violation per analyzer in a scratch
// package; the `// MUT:<analyzer>` markers name the finding each line
// must produce.
const mutationSrc = `package scratch

import (
	"math/rand"
	"time"

	"ygm/internal/codec"
)

func driver(r *codec.Reader) int {
	_ = time.Now()      // MUT:wallclock
	r.Uint64()          // MUT:codecerr
	return rand.Intn(3) // MUT:seedrand
}
`

// TestMutationSmoke writes the scratch package to a temp dir, runs the
// whole suite over it, and checks that every seeded violation — and
// nothing else — is reported on its marked line: the end-to-end guard
// that a change to the loader or the suppression pass cannot silently
// blind an analyzer.
func TestMutationSmoke(t *testing.T) {
	ldr, _ := modulePackages(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(mutationSrc), 0o644); err != nil {
		t.Fatalf("writing scratch package: %v", err)
	}
	fix, err := ldr.LoadDir(dir, "fixture/mutation")
	if err != nil {
		t.Fatalf("loading scratch package: %v", err)
	}
	findings := Run([]*Package{fix}, All(), nil)

	want := make(map[string]bool) // "analyzer:line"
	for i, line := range strings.Split(mutationSrc, "\n") {
		if _, name, ok := strings.Cut(line, "// MUT:"); ok {
			want[fmt.Sprintf("%s:%d", strings.TrimSpace(name), i+1)] = false
		}
	}
	if len(want) != len(All()) {
		t.Fatalf("expected %d seeded mutations, found %d markers", len(All()), len(want))
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Analyzer, f.Pos.Line)
		if _, ok := want[key]; !ok {
			t.Errorf("unseeded finding: %s", f)
			continue
		}
		want[key] = true
	}
	for key, hit := range want {
		if !hit {
			t.Errorf("seeded mutation %s was not detected", key)
		}
	}
}
