package analyzers

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutationSrc seeds exactly one violation per analyzer class the flow
// engine and the syntactic walk serve, in a scratch package; the
// `// MUT:<analyzer>` markers name the finding each line must produce.
const mutationSrc = `package scratch

import (
	"time"

	"ygm/internal/transport"
)

func driver(p *transport.Proc) {
	buf := p.AcquireBuf(8) // MUT:buflifetime
	_ = time.Now()         // MUT:wallclock
	_ = buf
}
`

// TestMutationSmoke writes the scratch package to a temp dir, runs the
// whole suite over it, and checks that every seeded violation — and
// nothing else — is reported on its marked line. This is the end-to-end
// guard that a refactor of the flow engine cannot silently blind one of
// buflifetime: each class has exactly one witness.
func TestMutationSmoke(t *testing.T) {
	ldr, pkgs := modulePackages(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(mutationSrc), 0o644); err != nil {
		t.Fatalf("writing scratch package: %v", err)
	}
	fix, err := ldr.LoadDir(dir, "fixture/mutation")
	if err != nil {
		t.Fatalf("loading scratch package: %v", err)
	}
	all := append(append([]*Package{}, pkgs...), fix)
	findings := Run([]*Package{fix}, all, All(), nil)

	want := make(map[string]bool) // "analyzer:line"
	for i, line := range strings.Split(mutationSrc, "\n") {
		if _, name, ok := strings.Cut(line, "// MUT:"); ok {
			want[fmt.Sprintf("%s:%d", strings.TrimSpace(name), i+1)] = false
		}
	}
	if len(want) != 2 {
		t.Fatalf("expected 2 seeded mutations, found %d markers", len(want))
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
