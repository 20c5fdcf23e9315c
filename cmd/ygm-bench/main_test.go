package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ygm/internal/transport"
)

// TestTraceFlagProducesValidChromeTrace is the acceptance test for the
// -trace flag: a real figure run must yield a file that passes the
// shared Chrome trace_event validator (i.e. loads in Perfetto).
func TestTraceFlagProducesValidChromeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fig6a sweep")
	}
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-fig", "fig6a", "-preset", "quick", "-nodes", "1,2", "-trace", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.ValidateChromeTrace(data); err != nil {
		t.Fatalf("-trace output fails validation: %v", err)
	}
	// The CLI validator (what the CI smoke job invokes) must agree.
	if err := run([]string{"-validate-trace", out}); err != nil {
		t.Fatalf("-validate-trace rejected a trace -trace just wrote: %v", err)
	}
}

// TestValidateTraceFlagRejectsGarbage: the CLI validator must fail on
// non-trace input so the CI smoke job can actually catch regressions.
func TestValidateTraceFlagRejectsGarbage(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate-trace", bad}); err == nil {
		t.Fatal("empty traceEvents accepted")
	}
	if err := run([]string{"-validate-trace", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestParallelFlagRunsFigure: -parallel must complete a real figure
// sweep through the worker pool. (Equality of parallel and serial
// tables up to simulator tie-break jitter is asserted in
// internal/bench's TestParallelMatchesSerial, on the Table values
// directly.)
func TestParallelFlagRunsFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fig6a sweep")
	}
	if err := run([]string{"-fig", "fig6a", "-preset", "quick", "-nodes", "1,2", "-parallel", "4", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
}

// TestProfileFlagPlumbing: -cpuprofile/-memprofile must produce
// non-empty pprof files for a run, and a bad profile path must fail the
// run instead of silently profiling nothing. Uses the topo experiment,
// which runs no simulated worlds, so the test is instant.
func TestProfileFlagPlumbing(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	if err := run([]string{"-fig", "topo", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	bad := filepath.Join(dir, "no-such-dir", "cpu.pb.gz")
	if err := run([]string{"-fig", "topo", "-cpuprofile", bad}); err == nil {
		t.Fatal("run succeeded despite unwritable -cpuprofile path")
	}
	if err := run([]string{"-fig", "topo", "-memprofile", bad}); err == nil {
		t.Fatal("run succeeded despite unwritable -memprofile path")
	}
}

// TestTCPWirePointsToBenchmark: the figures run on in-process wires
// only, and the tcp wire's message rate is the stream_tcp workload of
// the repository benchmark, so -wire=tcp must fail and name it.
func TestTCPWirePointsToBenchmark(t *testing.T) {
	err := run([]string{"-wire=tcp", "-ranks", "2", "-spawn"})
	if err == nil || !strings.Contains(err.Error(), "bash benchmark/run.sh --workload stream_tcp") {
		t.Fatalf("-wire=tcp: got %v, want an error naming the stream_tcp workload", err)
	}
}

// TestTraceFlagRejectsUnwritablePath: a bad trace path must surface as
// an error, not a silent no-trace run.
func TestTraceFlagRejectsUnwritablePath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fig6a sweep")
	}
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	if err := run([]string{"-fig", "fig6a", "-preset", "quick", "-nodes", "1", "-trace", bad}); err == nil {
		t.Fatal("run succeeded despite unwritable -trace path")
	}
}
