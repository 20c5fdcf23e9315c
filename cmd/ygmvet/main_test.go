package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeScratchModule creates a minimal standalone module whose only
// finding is an unknown-name ygmvet:ignore diagnostic — enough to drive
// the exit-1 path without depending on repo state.
func writeScratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go":   "package a\n\n//ygmvet:ignore bogusanalyzer\nfunc F() {}\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	return dir
}

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad-pattern", []string{"./cmd/..."}, "unsupported package pattern"},
		{"bad-flag", []string{"-nope"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit code = %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

func TestRunNoModule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code = %d, want 2 for a directory without go.mod", code)
	}
	if !strings.Contains(stderr.String(), "go.mod") {
		t.Errorf("stderr %q does not mention go.mod", stderr.String())
	}
}

// TestRunCleanRepo is the CI invocation in miniature: the repository
// itself must be ygmvet-clean, exit 0, and print nothing.
func TestRunCleanRepo(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", root, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

func TestRunFindingsExitOne(t *testing.T) {
	dir := writeScratchModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "bogusanalyzer") {
		t.Errorf("stdout %q does not carry the diagnostic", stdout.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr %q missing the finding count", stderr.String())
	}
}
