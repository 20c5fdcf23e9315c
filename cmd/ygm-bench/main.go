// Command ygm-bench regenerates the paper's evaluation figures on the
// simulated cluster and prints each as a table.
//
// Usage:
//
//	ygm-bench                              # every figure, quick preset
//	ygm-bench -fig fig6a,fig8d -preset paper
//	ygm-bench -fig fig7a -cores 8 -nodes 1,4,16,64
//	ygm-bench -fig fig6a -trace out.json        # Perfetto timeline of the run
//	ygm-bench -parallel 8                       # figure cells across 8 workers, same results
//	ygm-bench -fig fig8a -cpuprofile cpu.pb.gz  # pprof profile of the sweep
//	ygm-bench -list
//
// Experiments report *simulated* seconds from the netsim cost model (one
// host executes every rank as a goroutine); see EXPERIMENTS.md for how
// the resulting shapes compare with the paper's figures. The summed
// simulated seconds of fig6a and fig8a on the quick preset are pinned in
// BENCH_ygm.json, which internal/bench's TestFigurePins checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ygm/internal/bench"
	"ygm/internal/simtest"
	"ygm/internal/transport"
	"ygm/internal/wirecli"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ygm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("ygm-bench", flag.ContinueOnError)
	figs := fs.String("fig", "all", "comma-separated experiment ids, or 'all'")
	preset := fs.String("preset", "quick", "workload preset: quick or paper")
	cores := fs.Int("cores", 0, "override simulated cores per node")
	nodes := fs.String("nodes", "", "override node-count sweep (comma-separated)")
	seed := fs.Int64("seed", 0, "override workload seed")
	mailbox := fs.Int("mailbox", 0, "override mailbox capacity (records)")
	format := fs.String("format", "table", "output format: table or csv")
	list := fs.Bool("list", false, "list experiments and exit")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this path (open in ui.perfetto.dev)")
	weakScaling := fs.String("weak-scaling", "", "run the scheduler weak-scaling sweep at these comma-separated rank counts (e.g. 1024,4096,16384,65536)")
	synchSweep := fs.String("synch-sweep", "", "run the synchronizability sweep (all shapes x schemes x variants) and write the per-cell JSON summary to this path")
	synchSeeds := fs.Int("synch-seeds", 4, "seeded workloads per cell for -synch-sweep")
	validateTrace := fs.String("validate-trace", "", "validate a trace file produced by -trace and exit (used by the CI trace smoke job)")
	parallel := fs.Int("parallel", 1, "run each figure's independent cells on this many workers (simulated results are identical to serial)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (captured after the run) to this path")
	var wires wirecli.Flags
	wires.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if wires.Wire == "tcp" {
		return fmt.Errorf("-wire=tcp is not a figure backend; for the tcp wire's message rate run: bash benchmark/run.sh --workload stream_tcp")
	}
	if err := wires.Validate(0); err != nil {
		return err
	}

	runner := &bench.Runner{Workers: *parallel, CPUProfile: *cpuProfile, MemProfile: *memProfile}
	stopProfiles, err := runner.Profile()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	if *synchSweep != "" {
		return runSynchSweep(*synchSweep, *synchSeeds, *seed)
	}

	if *weakScaling != "" {
		return runWeakScaling(*weakScaling, *seed, *format)
	}

	if *validateTrace != "" {
		data, err := os.ReadFile(*validateTrace)
		if err != nil {
			return err
		}
		if err := transport.ValidateChromeTrace(data); err != nil {
			return err
		}
		fmt.Printf("# %s: valid Chrome trace (%d bytes)\n", *validateTrace, len(data))
		return nil
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}

	p, err := bench.PresetByName(*preset)
	if err != nil {
		return err
	}
	p.Wire = wires.Wire
	if *cores > 0 {
		p.Cores = *cores
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *mailbox > 0 {
		p.MailboxCap = *mailbox
	}
	if *nodes != "" {
		var sweep []int
		for _, tok := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -nodes entry %q", tok)
			}
			sweep = append(sweep, n)
		}
		p.WeakNodes = sweep
		p.StrongNodes = sweep
		var grid []int
		for _, n := range sweep {
			if isSquare(n * p.Cores) {
				grid = append(grid, n)
			}
		}
		p.GridNodes = grid
	}

	var selected []bench.Experiment
	if *figs == "all" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*figs, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown -format %q (have table, csv)", *format)
	}
	var tracer *transport.ChromeTracer
	if *tracePath != "" {
		tracer = transport.NewChromeTracer()
		p.Trace = tracer
	}
	if *format == "table" {
		fmt.Printf("# YGM reproduction benchmarks (preset=%s, cores/node=%d, mailbox=%d, seed=%d, wire=%s)\n",
			p.Name, p.Cores, p.MailboxCap, p.Seed, wires.Wire)
		if wires.Wire == "local" {
			fmt.Printf("# times are measured WALL seconds (in-process real-time wire)\n\n")
		} else {
			fmt.Printf("# times are SIMULATED seconds on the netsim cost model\n\n")
		}
	}
	for _, e := range selected {
		start := time.Now()
		table := runner.Run(e, p)
		if *format == "csv" {
			fmt.Printf("# %s\n", e.ID)
			table.PrintCSV(os.Stdout)
			fmt.Println()
			continue
		}
		table.Print(os.Stdout)
		fmt.Printf("(generated in %.1fs wall)\n\n", time.Since(start).Seconds())
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if _, err := tracer.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote trace to %s (open in ui.perfetto.dev)\n", *tracePath)
	}
	return nil
}

// runWeakScaling implements -weak-scaling: one scheduled
// bcast+barrier world per requested rank count, reported through the
// standard table/CSV path. The sweep measures host-side cost growth
// (wall seconds, allocated MiB) against world size — the number the
// M:N scheduler and the O(1) idle inbox exist to keep linear.
func runWeakScaling(spec string, seed int64, format string) error {
	var ranks []int
	for _, tok := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -weak-scaling entry %q", tok)
		}
		ranks = append(ranks, n)
	}
	if seed == 0 {
		seed = 1
	}
	points, err := bench.WeakScale(ranks, seed)
	if err != nil {
		return err
	}
	table := bench.WeakScaleTable(points)
	if format == "csv" {
		table.PrintCSV(os.Stdout)
		return nil
	}
	table.Print(os.Stdout)
	return nil
}

// runSynchSweep implements -synch-sweep: every topology shape x routing
// scheme x mailbox variant cell runs seedsPerCell clean workloads under
// the synchronizability oracle, and the per-cell tallies are written as
// JSON (the nightly job uploads the file as an artifact). A sweep with
// any violation, runtime failure, or delivery failure exits nonzero.
func runSynchSweep(path string, seedsPerCell int, base int64) error {
	if seedsPerCell < 1 {
		return fmt.Errorf("-synch-seeds must be at least 1, have %d", seedsPerCell)
	}
	sum := simtest.SweepSynch(seedsPerCell, base)
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# synch sweep: %d runs, %d synchronizable, %d violations (wrote %s)\n",
		sum.Runs, sum.Synchronizable, sum.Violations, path)
	for _, cell := range sum.Cells {
		if cell.FirstViolation != "" {
			fmt.Fprintf(os.Stderr, "VIOLATION %s/%s/%s: %s\n", cell.Topo, cell.Scheme, cell.Variant, cell.FirstViolation)
		}
	}
	if sum.Violations > 0 || sum.RuntimeFailures > 0 || sum.DeliveryFailures > 0 {
		return fmt.Errorf("synch sweep found %d violations, %d runtime failures, %d delivery failures",
			sum.Violations, sum.RuntimeFailures, sum.DeliveryFailures)
	}
	return nil
}

func isSquare(n int) bool {
	r := 1
	for r*r < n {
		r++
	}
	return r*r == n
}
