package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"ygm/internal/machine"
)

// Cell is the independently runnable unit of an experiment: one
// simulated-world execution (or a cheap derived computation) producing
// the rows at a fixed position in the experiment's table. A cell
// captures every parameter it needs at plan time and shares no mutable
// state with its siblings, so a worker pool may execute cells in any
// order; reassembling their rows in plan order reproduces the serial
// table exactly. Each simulated world is deterministic given its seed,
// which makes serial and parallel sweeps byte-identical by
// construction.
type Cell struct {
	Name string
	Rows func() []Row
}

// Plan is an experiment's cell decomposition: the table skeleton (ID
// and Title, no rows yet) plus the ordered cells whose concatenated
// rows form the table.
type Plan struct {
	Table *Table
	Cells []Cell
}

// add appends a single-row cell.
func (pl *Plan) add(name string, run func() Row) {
	pl.Cells = append(pl.Cells, Cell{Name: name, Rows: func() []Row { return []Row{run()} }})
}

// addRows appends a multi-row cell.
func (pl *Plan) addRows(name string, run func() []Row) {
	pl.Cells = append(pl.Cells, Cell{Name: name, Rows: run})
}

// runPlan is the serial executor: cells execute in plan order on the
// calling goroutine. Because the parallel runner executes the same cells
// and reassembles rows in the same order, the two paths cannot diverge.
func runPlan(pl Plan) *Table {
	for _, c := range pl.Cells {
		pl.Table.Rows = append(pl.Table.Rows, c.Rows()...)
	}
	return pl.Table
}

// cellName labels the standard (figure, nodes, scheme) cell.
func cellName(id string, nodes int, scheme machine.Scheme) string {
	return fmt.Sprintf("%s/nodes=%d/scheme=%s", id, nodes, scheme)
}

// Runner executes experiments, optionally spreading each experiment's
// independent cells across a worker pool and profiling the host process
// over the sweep. The zero value runs serially with no profiles.
type Runner struct {
	// Workers is the number of goroutines executing cells. Values <= 1
	// run serially. Simulated results do not depend on Workers; only host
	// wall time does.
	Workers int
	// CPUProfile, when non-empty, is the path Profile writes a pprof
	// CPU profile of the sweep to.
	CPUProfile string
	// MemProfile, when non-empty, is the path Profile's stop function
	// writes a post-sweep heap profile to.
	MemProfile string
}

// Run executes one experiment, fanning its cells out across Workers
// goroutines. Workers <= 1 runs them serially through runPlan, and so
// does a non-nil Preset.Trace: a ChromeTracer is safe to share but
// records one world at a time, and interleaving concurrent worlds would
// garble the timeline.
func (r *Runner) Run(e Experiment, p Preset) *Table {
	pl := e.Plan(p)
	workers := min(r.Workers, len(pl.Cells))
	if p.Trace != nil || workers <= 1 {
		return runPlan(pl)
	}
	rows := make([][]Row, len(pl.Cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rows[i] = pl.Cells[i].Rows()
			}
		}()
	}
	for i := range pl.Cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, rs := range rows {
		pl.Table.Rows = append(pl.Table.Rows, rs...)
	}
	return pl.Table
}

// Profile starts the configured profiles and returns the function that
// finishes them: it stops the CPU profile and captures the heap
// profile (after a GC, so the live set rather than garbage is
// measured). Call stop exactly once, after the sweep; with no profiles
// configured both Profile and stop are no-ops.
func (r *Runner) Profile() (stop func() error, err error) {
	var cpu *os.File
	if r.CPUProfile != "" {
		cpu, err = os.Create(r.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("bench: starting CPU profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if r.MemProfile != "" {
			f, err := os.Create(r.MemProfile)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("bench: writing heap profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
