package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// simTolerance is how far one repetition's simulated makespan may sit
// from the median of its siblings. The simulator executes ranks
// directly on host goroutines, so sim_s is not a pure function of the
// inputs: processing order among physically present packets moves the
// virtual clock's last digits (about a part in a thousand), and host
// timing decides whether termination detection needs one generation
// more or fewer — 17 or 18 of them on seed 8, which moves sim_s by
// 2.4 %. The tolerance admits one generation and catches anything
// grosser.
const simTolerance = 0.05

// summary is one metric over a workload's measured repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// workloadResult is everything one invocation learned about a workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Fails     map[string]int     `json:"fails,omitempty"` // reason → repetitions
	Details   []string           `json:"fail_details,omitempty"`
	Summary   map[string]summary `json:"summary"`
	Absent    map[string]string  `json:"absent,omitempty"`
	Reps      []*rep             `json:"repetitions"`
	Traced    *rep               `json:"traced,omitempty"`
	// Layers holds the per-layer metrics of the traced repetition and
	// its untraced companion.
	Layers map[string]float64 `json:"per_layer,omitempty"`
}

func newWorkloadResult(name string) *workloadResult {
	return &workloadResult{
		Name: name, Fails: make(map[string]int),
		Summary: make(map[string]summary), Absent: make(map[string]string),
	}
}

func (wr *workloadResult) add(r *rep) {
	wr.Attempted += r.Attempted
	wr.Failed += r.failed()
	if r.Fail != "" {
		wr.Fails[r.Fail]++
		wr.Details = append(wr.Details, r.Fail+": "+r.Detail)
	}
}

// measureWorkload runs one discarded warm-up and then measured
// repetitions, each in a fresh child: exactly measuredReps of them, or,
// with a budget, at least measuredReps and then as many more as are
// expected to end inside the budget. The budget's clock starts before
// the warm-up. The first failed repetition ends the measurement.
func (pa *parent) measureWorkload(w *workload, warmup bool, reps int, budget time.Duration) *workloadResult {
	wr := newWorkloadResult(w.Name)
	start := time.Now()
	if warmup {
		if r := pa.runRep(w, false); r.Fail != "" {
			wr.add(r) // a warm-up that fails is still a failure
		}
	}
	for last := time.Duration(0); len(wr.Reps) < reps || time.Since(start)+last < budget; {
		t := time.Now()
		r := pa.runRep(w, false)
		wr.Reps = append(wr.Reps, r)
		last = time.Since(t)
		if r.Fail != "" {
			// The run is incorrect whatever follows, and a child that
			// hangs costs a whole deadline each time: stop here.
			break
		}
	}
	pa.checkSimRepeats(wr)
	for _, r := range wr.Reps {
		wr.add(r)
	}
	wr.summarize()
	return wr
}

// checkSimRepeats fails a repetition whose simulated makespan strays
// from its siblings' median: the same commit and seed must give the
// same simulated time up to simTolerance.
func (pa *parent) checkSimRepeats(wr *workloadResult) {
	var sims []float64
	for _, r := range wr.Reps {
		if v, ok := r.Metrics["sim_s"]; ok && r.Fail == "" {
			sims = append(sims, v)
		}
	}
	if len(sims) < 2 {
		return
	}
	med := median(sims)
	for _, r := range wr.Reps {
		if v, ok := r.Metrics["sim_s"]; ok && r.Fail == "" && math.Abs(v-med) > simTolerance*med {
			r.Fail, r.Verified = failMismatch, 0
			r.Detail = fmt.Sprintf("sim_s %.9g strays from the repetitions' median %.9g", v, med)
		}
	}
}

func (wr *workloadResult) summarize() {
	vals := make(map[string][]float64)
	for _, r := range wr.Reps {
		if r.Fail != "" {
			continue
		}
		for name, v := range r.Metrics {
			if finite(v) {
				vals[name] = append(vals[name], v)
			}
		}
		for name, why := range r.Absent {
			wr.Absent[name] = why
		}
	}
	for name, vs := range vals {
		q1, med, q3 := quartiles(vs)
		wr.Summary[name] = summary{Median: med, Q1: q1, Q3: q3, N: len(vs)}
	}
}

// traceWorkload runs the traced repetition and an untraced companion,
// writes the span file, and assembles the workload's per-layer metrics:
// span-based ones from the traced run, counter-based ones from the
// untraced run (the tracer's own allocations would pollute them), and
// the tracing overhead from the two walls.
func (pa *parent) traceWorkload(w *workload, wr *workloadResult) {
	traced, plain := pa.runRep(w, true), pa.runRep(w, false)
	wr.Traced = traced
	wr.add(traced)
	wr.add(plain)
	wr.Layers = make(map[string]float64)
	if traced.Fail != "" || plain.Fail != "" {
		for _, d := range workloadLayers() {
			wr.Absent[d.Name] = "traced or companion repetition failed"
		}
		return
	}
	if err := pa.writeTrace(traced); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
	}
	for _, d := range workloadLayers() {
		src := traced // span-based metrics exist only there
		if _, ok := plain.Metrics[d.Name]; ok {
			src = plain
		}
		if why, absent := src.Absent[d.Name]; absent {
			wr.Absent[d.Name] = why
		} else {
			wr.Layers[d.Name] = src.Metrics[d.Name]
		}
	}
	// Against the median of the measured repetitions when there are any,
	// else against the one companion.
	base := plain.timedS
	if s, ok := wr.Summary["ops_per_s"]; ok {
		base = float64(plain.Attempted) / s.Median
	}
	wr.Layers["obs.trace_overhead_pct"] = (traced.timedS - base) / base * 100
}

// timedRun is the one-run mode an outside harness drives: measure one
// workload for -seconds seconds (or trace it), print the metrics by
// name, and end with one JSON line.
func timedRun(pa *parent, o *options) int {
	w := findWorkload(o.workload)
	fmt.Printf("# %s  seed %d  %s\n", w.Name, o.seed, hostInfo().line())
	fmt.Printf("# %s\n", w.Why)
	budget := time.Duration(o.seconds) * time.Second
	var wr *workloadResult
	var defs []metricDef
	var value func(name string) float64
	if o.trace == 0 {
		wr = pa.measureWorkload(w, true, measuredReps, budget)
		defs = endToEnd
		value = func(name string) float64 { return wr.Summary[name].Median }
		printSummary(wr, userVisible())
		if len(wr.Summary) == 0 {
			wr.Failed = max(wr.Failed, 1)
		}
	} else {
		wr = newWorkloadResult(w.Name)
		pa.traceWorkload(w, wr)
		vals, absent := pa.runLadder()
		for k, v := range vals {
			wr.Layers[k] = v
		}
		for k, v := range absent {
			wr.Absent[k] = v
			wr.Failed = max(wr.Failed, 1) // a rung that cannot run is a failed run
		}
		defs = perLayer()
		// An absent metric reads 0; its reason is printed above the line.
		value = func(name string) float64 { return wr.Layers[name] }
		printLayers(wr.Layers, wr.Absent, defs)
	}
	printFailures(wr)

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: wr.Failed == 0, Attempted: max(wr.Attempted, 1), Failed: wr.Failed, Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v := value(d.Name)
		if !finite(v) {
			v = 0
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

// suiteResult is the file a suite run leaves in out/.
type suiteResult struct {
	Host      host               `json:"host"`
	Seed      int64              `json:"seed"`
	Quick     bool               `json:"quick"`
	Workloads []*workloadResult  `json:"workloads"`
	Ladder    map[string]float64 `json:"ladder,omitempty"`
	Absent    map[string]string  `json:"ladder_absent,omitempty"`
}

func (o *options) selected() []*workload {
	var ws []*workload
	for i := range workloads {
		if o.workload == "" || workloads[i].Name == o.workload {
			ws = append(ws, &workloads[i])
		}
	}
	return ws
}

// runSuite measures the given workloads; with layers it also runs the
// traced repetitions and the ladder.
func runSuite(pa *parent, o *options, ws []*workload, layers bool) *suiteResult {
	sr := &suiteResult{Host: hostInfo(), Seed: o.seed, Quick: o.quick}
	reps := measuredReps
	if o.quick {
		reps = 2 // and no warm-up: -quick is a smoke run, not a measurement
	}
	for _, w := range ws {
		fmt.Printf("\n## %s — %s\n", w.Name, w.Why)
		wr := pa.measureWorkload(w, !o.quick, reps, 0)
		if layers {
			pa.traceWorkload(w, wr)
		}
		printSummary(wr, userVisible())
		if layers {
			printLayers(wr.Layers, wr.Absent, workloadLayers())
		}
		printFailures(wr)
		sr.Workloads = append(sr.Workloads, wr)
	}
	if layers {
		fmt.Printf("\n## ladder\n")
		sr.Ladder, sr.Absent = pa.runLadder()
		printLayers(sr.Ladder, sr.Absent, groupB)
	}
	return sr
}

func (sr *suiteResult) failed() (n uint64) {
	for _, wr := range sr.Workloads {
		n += wr.Failed
	}
	return n + uint64(len(sr.Absent))
}

func suiteRun(pa *parent, o *options) int {
	fmt.Printf("# ygm benchmark  seed %d  %s\n", o.seed, hostInfo().line())
	fmt.Println("# tcp worlds are 2 rank processes on this host: every remote byte crosses the loopback interface, not a real link")
	sr := runSuite(pa, o, o.selected(), true)
	crossCheckWordcount(sr)
	stack := costStacks(sr)
	fmt.Print("\n" + stack)
	name := "results.json"
	if o.quick {
		name = "results-quick.json" // never the baseline
	}
	if err := writeJSON(filepath.Join(pa.outDir, name), sr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := os.WriteFile(filepath.Join(pa.outDir, "cost_stack.md"), []byte(stack), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("\nresults: %s  traces: %s/<workload>.trace.json\n", filepath.Join(pa.outDir, name), pa.outDir)
	if n := sr.failed(); n > 0 {
		fmt.Printf("FAILED: %d operations or rungs failed\n", n)
		return 1
	}
	return 0
}

// crossCheckWordcount checks that the two wires computed the same
// table, beyond each matching the serial reference.
func crossCheckWordcount(sr *suiteResult) {
	digests := make(map[string]uint64)
	for _, wr := range sr.Workloads {
		if strings.HasPrefix(wr.Name, "wordcount_") && len(wr.Reps) > 0 && wr.Reps[0].Fail == "" {
			digests[wr.Name] = wr.Reps[0].digest
		}
	}
	l, okL := digests["wordcount_local"]
	t, okT := digests["wordcount_tcp"]
	if !okL || !okT {
		return
	}
	if l == t {
		fmt.Printf("\nwordcount digest %#016x on both wires\n", l)
		return
	}
	fmt.Printf("\nFAILED: wordcount digest differs between wires: local %#016x, tcp %#016x\n", l, t)
	for _, wr := range sr.Workloads {
		if wr.Name == "wordcount_tcp" {
			wr.Failed = wr.Attempted
			wr.Fails[failMismatch]++
		}
	}
}

// aaRun runs the end-to-end suite twice on the same build and compares
// the medians pairwise with the bounds. The method is fixed: the two
// passes of a workload run back to back (so that the minutes-long load
// swings of a shared box fall on both rather than between them), and the
// comparison is symmetric — two runs of one build have no "parent", so a
// swing in either direction beyond the bound is a breach.
func aaRun(pa *parent, o *options) int {
	fmt.Printf("# ygm benchmark A/A  seed %d  %s\n", o.seed, hostInfo().line())
	first, second := &suiteResult{}, &suiteResult{}
	for _, w := range o.selected() {
		for _, sr := range []*suiteResult{first, second} {
			sr.Workloads = append(sr.Workloads, runSuite(pa, o, []*workload{w}, false).Workloads...)
		}
	}
	fmt.Printf("\n## A/A: two runs of one build\n")
	fmt.Printf("%-16s %-16s %14s %14s %9s %7s %7s\n", "workload", "metric", "first", "second", "differ by", "bound", "spread")
	breaches := 0
	for i, a := range first.Workloads {
		b := second.Workloads[i]
		for _, d := range userVisible() {
			sa, okA := a.Summary[d.Name]
			sb, okB := b.Summary[d.Name]
			if !okA || !okB {
				continue
			}
			differ := math.Abs(sb.Median-sa.Median) / min(sa.Median, sb.Median)
			bound, mark := fmt.Sprintf("%6.0f%%", d.Bound*100), ""
			switch {
			case d.Bound == 0:
				bound = "  none" // per-layer: printed, not gated
			case differ > d.Bound:
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-16s %14.6g %14.6g %8.1f%% %s %6.1f%%%s\n",
				a.Name, d.Name, sa.Median, sb.Median, differ*100, bound, 100*math.Abs(sa.Q3-sa.Q1)/sa.Median, mark)
		}
	}
	failed := first.failed() + second.failed()
	if failed > 0 {
		fmt.Printf("FAILED: %d operations failed\n", failed)
	}
	if breaches > 0 {
		fmt.Printf("FAILED: %d metric × workload pairs differ by more than their bound between two runs of one build\n", breaches)
	}
	if failed > 0 || breaches > 0 {
		return 1
	}
	fmt.Println("A/A clean: every bounded metric × workload within its bound")
	return 0
}

func printSummary(wr *workloadResult, defs []metricDef) {
	fmt.Printf("%-18s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range defs {
		if s, ok := wr.Summary[d.Name]; ok {
			fmt.Printf("%-18s %-6s %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
		} else if why, ok := wr.Absent[d.Name]; ok {
			fmt.Printf("%-18s %-6s absent: %s\n", d.Name, d.Unit, why)
		}
	}
	fmt.Printf("ops attempted %d, failed %d\n", wr.Attempted, wr.Failed)
}

func printLayers(vals map[string]float64, absent map[string]string, defs []metricDef) {
	for _, d := range defs {
		if why, ok := absent[d.Name]; ok {
			fmt.Printf("  %-38s %-6s absent: %s\n", d.Name, d.Unit, why)
		} else {
			fmt.Printf("  %-38s %-6s %14.6g\n", d.Name, d.Unit, vals[d.Name])
		}
	}
}

func printFailures(wr *workloadResult) {
	reasons := make([]string, 0, len(wr.Fails))
	for reason := range wr.Fails {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Printf("FAILED repetitions: %d × %s\n", wr.Fails[reason], reason)
	}
	for _, d := range wr.Details {
		fmt.Printf("  %s\n", d)
	}
}
