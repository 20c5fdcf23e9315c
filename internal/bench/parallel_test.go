package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// shrunkQuick keeps the parallel-vs-serial comparisons fast.
func shrunkQuick() Preset {
	p := Quick()
	p.WeakNodes = []int{1, 2}
	p.StrongNodes = []int{1, 2}
	p.GridNodes = []int{1}
	return p
}

// jitterKeys are the value columns derived from simulated completion
// times. The simulator is optimistic: a rank absorbs whatever has
// physically arrived when it polls, so virtual waits absorb overhead
// charges in a scheduling-dependent order and these columns jitter
// run to run — serial or parallel alike (that pre-existing jitter is
// what TestFigurePins' pinTolerance bounds). Everything else —
// labels, traffic counts, message sizes, delegate/broadcast counts —
// is a deterministic function of the workload and must match exactly.
var jitterKeys = map[string]bool{
	"sim_time":    true,
	"rate":        true,
	"utilization": true,
	"measured_bw": true,
}

// simTestTolerance bounds the per-value relative drift allowed on
// jitter columns between two runs of the same experiment. Looser than
// TestFigurePins' pinTolerance: single cells on the shrunk preset
// are short, so tie-break jitter is relatively larger than on figure
// totals.
const simTestTolerance = 0.15

// TestParallelMatchesSerial runs the two pinned figures both
// serially and through the worker pool and requires identical tables up
// to simulator tie-break jitter: same row order, byte-identical labels,
// exactly equal deterministic columns.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full figure sweeps twice")
	}
	p := shrunkQuick()
	for _, id := range []string{"fig6a", "fig8a"} {
		t.Run(id, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			serial := runPlan(e.Plan(p))
			par := (&Runner{Workers: 4}).Run(e, p)
			if par.ID != serial.ID || par.Title != serial.Title {
				t.Fatalf("table header mismatch: %q/%q vs %q/%q", par.ID, par.Title, serial.ID, serial.Title)
			}
			if len(par.Rows) != len(serial.Rows) {
				t.Fatalf("row count: parallel %d vs serial %d", len(par.Rows), len(serial.Rows))
			}
			for i := range serial.Rows {
				sr, pr := serial.Rows[i], par.Rows[i]
				if !reflect.DeepEqual(sr.Labels, pr.Labels) {
					t.Fatalf("row %d labels: parallel %v vs serial %v", i, pr.Labels, sr.Labels)
				}
				if len(sr.Values) != len(pr.Values) {
					t.Fatalf("row %d value count: parallel %d vs serial %d", i, len(pr.Values), len(sr.Values))
				}
				for j := range sr.Values {
					sv, pv := sr.Values[j], pr.Values[j]
					if sv.Key != pv.Key || sv.Unit != pv.Unit {
						t.Fatalf("row %d value %d: parallel %s/%s vs serial %s/%s", i, j, pv.Key, pv.Unit, sv.Key, sv.Unit)
					}
					if jitterKeys[sv.Key] {
						if d := relDiff(sv.Val, pv.Val); d > simTestTolerance {
							t.Errorf("row %d %s: parallel %g vs serial %g (%.1f%% apart)", i, sv.Key, pv.Val, sv.Val, d*100)
						}
						continue
					}
					if sv.Val != pv.Val {
						t.Errorf("row %d %s: parallel %g != serial %g (deterministic column)", i, sv.Key, pv.Val, sv.Val)
					}
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / m
}

// TestRunnerPreservesCellOrder pins the by-construction guarantee on
// synthetic cells: whatever order the pool executes them in, rows are
// reassembled in plan order, so a parallel table equals the serial one
// whenever the cells themselves are deterministic.
func TestRunnerPreservesCellOrder(t *testing.T) {
	const n = 64
	mkPlan := func(Preset) Plan {
		pl := Plan{Table: &Table{ID: "synthetic", Title: "synthetic"}}
		for i := 0; i < n; i++ {
			pl.add(fmt.Sprintf("cell-%d", i), func() Row {
				return Row{Labels: []Label{{Key: "cell", Val: fmt.Sprintf("%d", i)}}}
			})
		}
		return pl
	}
	e := Experiment{ID: "synthetic", Title: "synthetic", Plan: mkPlan}
	for _, workers := range []int{1, 3, 8, 2 * n} {
		table := (&Runner{Workers: workers}).Run(e, Preset{})
		if len(table.Rows) != n {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(table.Rows), n)
		}
		for i, r := range table.Rows {
			if got := r.LabelVal("cell"); got != fmt.Sprintf("%d", i) {
				t.Fatalf("workers=%d: row %d came from cell %s", workers, i, got)
			}
		}
	}
}

// TestRunnerTraceForcesSerial: a non-nil tracer must take the serial
// path — a shared ChromeTracer records one world at a time, and
// interleaving concurrent worlds would garble the timeline.
func TestRunnerTraceForcesSerial(t *testing.T) {
	running := 0
	peak := 0
	mkPlan := func(Preset) Plan {
		pl := Plan{Table: &Table{ID: "x", Title: "x"}}
		for i := 0; i < 8; i++ {
			pl.add("c", func() Row {
				// Serial execution means no overlap, so no synchronization
				// is needed for these counters; the race detector would
				// flag any violation of that assumption.
				running++
				if running > peak {
					peak = running
				}
				running--
				return Row{}
			})
		}
		return pl
	}
	e := Experiment{ID: "x", Title: "x", Plan: mkPlan}
	p := Preset{Trace: nopTracer{}}
	(&Runner{Workers: 8}).Run(e, p)
	if peak != 1 {
		t.Fatalf("cells overlapped under a tracer: peak concurrency %d", peak)
	}
}

// TestRunnerProfileWritesFiles exercises the pprof plumbing end to end:
// both profile files must exist and be non-empty after stop.
func TestRunnerProfileWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	r := &Runner{CPUProfile: cpu, MemProfile: mem}
	stop, err := r.Profile()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
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
	// No profiles configured: both Profile and stop must be no-ops.
	stop, err = (&Runner{}).Profile()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestPlansMatchSerialTables: every decomposed experiment's plan must
// reproduce its serial table structure — same ID and the same number of
// rows — on the shrunk preset. (Full value equality is covered for the
// pinned figures above; this guards the cheap structural property for
// every plan so a cell can't silently drop a row.)
func TestPlansMatchSerialTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	p := shrunkQuick()
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			pl := e.Plan(p)
			if pl.Table.ID != e.ID {
				t.Fatalf("plan table ID %q, want %q", pl.Table.ID, e.ID)
			}
			if len(pl.Cells) == 0 {
				t.Fatal("plan has no cells")
			}
			serial := runPlan(e.Plan(p))
			total := 0
			for _, c := range pl.Cells {
				if c.Name == "" {
					t.Fatal("cell with empty name")
				}
				total += len(c.Rows())
			}
			if total != len(serial.Rows) {
				t.Fatalf("plan cells produce %d rows, serial table has %d", total, len(serial.Rows))
			}
		})
	}
}

// nopTracer is the minimal transport.Tracer used to trigger the
// trace-forces-serial path.
type nopTracer struct{}

func (nopTracer) PacketSent(src, dst machine.Rank, tag transport.Tag, size int, sent, arrive float64) {
}
func (nopTracer) PacketReceived(src, dst machine.Rank, tag transport.Tag, size int, now float64) {}
func (nopTracer) SpanBegin(rank machine.Rank, name string, t float64)                            {}
func (nopTracer) SpanEnd(rank machine.Rank, name string, t float64)                              {}
func (nopTracer) Mark(rank machine.Rank, name string, value uint64, t float64)                   {}
