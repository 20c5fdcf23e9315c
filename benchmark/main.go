// Command benchmark is the repository's benchmark: six wall-clock
// workloads on the local, tcp and sim wires, a per-layer ladder and a
// traced cost stack, all measured from outside the layers — by timing
// calls into their public functions and reading what a run already
// exposes. See README.md in this directory.
//
//	bash benchmark/run.sh                                   whole suite, baseline to benchmark/out/
//	bash benchmark/run.sh -workload stream_tcp -seed 2      one workload
//	bash benchmark/run.sh -aa                               suite twice, medians compared with the bounds
//	bash benchmark/run.sh -quick                            ~10x smaller inputs
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                        one timed run; last stdout line is JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ygm/internal/wirecli"
)

// measuredReps is how many repetitions of a workload are kept, after one
// discarded warm-up: exactly this many in suite mode, at least this many
// in timed-run mode.
const measuredReps = 7

// outDir receives results, span files and per-repetition scratch files,
// relative to the checkout root the command is run from.
const outDir = "benchmark/out"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
	quick    bool
	deadline time.Duration
	memCapMB int
	fault    string

	// Internal flags: a child process runs one repetition (or the
	// ladder) and writes its result file.
	isChild bool
	traced  bool
	result  string
	wires   wirecli.Flags
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 0, "timed-run mode: measure repetitions for this many seconds and print one JSON line last")
	fs.IntVar(&o.trace, "trace", 0, "timed-run mode: 0 prints the end-to-end metrics, 1 runs the traced repetition and the ladder and prints the per-layer metrics")
	fs.BoolVar(&o.aa, "aa", false, "run the suite twice on this build and compare the medians with the bounds; exit 1 on a breach")
	fs.BoolVar(&o.quick, "quick", false, "about 10x smaller inputs, same metric names; never written to the baseline")
	fs.DurationVar(&o.deadline, "deadline", 60*time.Second, "wall deadline of one child repetition")
	fs.IntVar(&o.memCapMB, "memcap-mb", 4096, "address-space cap of one child process, MiB (0 = none)")
	fs.StringVar(&o.fault, "fault", "", "fault drill: kill-rank makes the last tcp rank die mid-run")
	fs.BoolVar(&o.isChild, "child", false, "internal: run one repetition in this process")
	fs.BoolVar(&o.traced, "traced", false, "internal: child records spans")
	fs.StringVar(&o.result, "result", "", "internal: child result file")
	o.wires.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if o.isChild {
		os.Exit(childMain(o))
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	pa, err := newParent(o, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	switch {
	case o.seconds > 0:
		if o.workload == "" {
			fmt.Fprintln(os.Stderr, "benchmark: -seconds needs -workload")
			os.Exit(2)
		}
		os.Exit(timedRun(pa, o))
	case o.aa:
		os.Exit(aaRun(pa, o))
	default:
		os.Exit(suiteRun(pa, o))
	}
}
