package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// The committed baseline (BENCH_ygm.json at the repository root) pins two
// kinds of numbers:
//
//   - micro: host-side ns/op, B/op, and allocs/op of the coalescing
//     micro benches (MicroBenches). allocs/op is hardware-independent and
//     gated strictly; ns/op is gated with a tolerance and only meaningful
//     on hardware comparable to the machine that produced the baseline.
//   - figures: simulated seconds of representative evaluation figures.
//     Simulated time comes from the deterministic netsim cost model, so
//     it is reproducible bit-for-bit across hosts; the small tolerance
//     absorbs goroutine-scheduling nondeterminism in tie-breaks only.
const (
	// NsTolerance fails a micro bench whose ns/op regresses by more
	// than this fraction over the committed baseline. Wall-clock noise
	// on shared CI hosts routinely exceeds 20% even for the minimum of
	// several rounds, so this gate is a coarse tripwire for real
	// regressions (algorithmic blowups, accidental O(n^2) paths); the
	// strict per-op gate is allocs/op, which is host-independent.
	NsTolerance = 0.35
	// AllocTolerance absorbs run-to-run scheduling jitter in whole-world
	// allocation counts (pool handoffs between rank goroutines vary
	// slightly with interleaving); any increase beyond it fails.
	AllocTolerance = 0.02
	// SimTolerance bounds drift in simulated seconds.
	SimTolerance = 0.05
)

// MicroResult is one committed micro-benchmark measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// FigureResult is the simulated-seconds total of one evaluation figure
// (the sum of its rows' sim_time column).
type FigureResult struct {
	ID         string  `json:"id"`
	SimSeconds float64 `json:"sim_seconds"`
}

// Baseline is the schema of BENCH_ygm.json.
type Baseline struct {
	Micro   []MicroResult  `json:"micro"`
	Figures []FigureResult `json:"figures"`
}

// baselineFigures names the figures whose simulated seconds are pinned:
// degree-counting weak scaling (Fig. 6a) and SpMV weak scaling (Fig. 8a),
// both on the quick preset.
func baselineFigures() []Experiment {
	fig6a, _ := Lookup("fig6a")
	fig8a, _ := Lookup("fig8a")
	return []Experiment{fig6a, fig8a}
}

// CollectBaseline measures the full baseline: each micro bench runs
// `rounds` times through testing.Benchmark and the fastest round is kept
// (minimum ns/op, with its memory counters); each pinned figure runs once
// on the quick preset.
func CollectBaseline(rounds int) Baseline {
	if rounds < 1 {
		rounds = 1
	}
	var out Baseline
	for _, mb := range MicroBenches() {
		best := testing.Benchmark(mb.Run)
		for i := 1; i < rounds; i++ {
			if r := testing.Benchmark(mb.Run); r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		out.Micro = append(out.Micro, MicroResult{
			Name:        mb.Name,
			NsPerOp:     float64(best.NsPerOp()),
			BytesPerOp:  best.AllocedBytesPerOp(),
			AllocsPerOp: best.AllocsPerOp(),
		})
	}
	p := Quick()
	for _, e := range baselineFigures() {
		table := runPlan(e.Plan(p))
		total := 0.0
		for _, row := range table.Rows {
			if v, ok := row.Get("sim_time"); ok {
				total += v
			}
		}
		out.Figures = append(out.Figures, FigureResult{ID: e.ID, SimSeconds: total})
	}
	return out
}

// WriteJSON writes the baseline to path, indented for diff-friendliness.
func (b Baseline) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBaseline reads a committed baseline file.
func LoadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return b, nil
}

// CompareBaseline checks current against the committed baseline and
// returns one human-readable line per regression; an empty slice means
// the gate passes. Missing entries are regressions too — a bench that
// silently disappears must not pass the gate.
func CompareBaseline(committed, current Baseline) []string {
	var regressions []string
	curMicro := map[string]MicroResult{}
	for _, m := range current.Micro {
		curMicro[m.Name] = m
	}
	for _, base := range committed.Micro {
		cur, ok := curMicro[base.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("micro %s: missing from current run", base.Name))
			continue
		}
		if limit := base.NsPerOp * (1 + NsTolerance); cur.NsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"micro %s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				base.Name, cur.NsPerOp, base.NsPerOp, NsTolerance*100))
		}
		if limit := float64(base.AllocsPerOp) * (1 + AllocTolerance); float64(cur.AllocsPerOp) > limit {
			regressions = append(regressions, fmt.Sprintf(
				"micro %s: %d allocs/op regressed over baseline %d allocs/op",
				base.Name, cur.AllocsPerOp, base.AllocsPerOp))
		}
	}
	curFig := map[string]FigureResult{}
	for _, f := range current.Figures {
		curFig[f.ID] = f
	}
	for _, base := range committed.Figures {
		cur, ok := curFig[base.ID]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("figure %s: missing from current run", base.ID))
			continue
		}
		if limit := base.SimSeconds * (1 + SimTolerance); cur.SimSeconds > limit {
			regressions = append(regressions, fmt.Sprintf(
				"figure %s: %.4f simulated s exceeds baseline %.4f s by more than %.0f%%",
				base.ID, cur.SimSeconds, base.SimSeconds, SimTolerance*100))
		}
	}
	return regressions
}
