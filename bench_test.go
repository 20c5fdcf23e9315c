// Package-level benchmarks: one testing.B benchmark per evaluation
// figure of the paper plus the DESIGN.md ablations. Each iteration
// regenerates the figure's full table on the quick preset; run the
// ygm-bench command with -preset paper for the larger sweeps.
//
//	go test -bench=. -benchmem
package ygm_test

import (
	"testing"

	"ygm/internal/bench"
)

// quickBench shrinks the quick preset a little further so a single
// benchmark iteration stays well under a second.
func quickBench() bench.Preset {
	p := bench.Quick()
	p.WeakNodes = []int{1, 2, 4, 8}
	p.StrongNodes = []int{1, 2, 4, 8}
	p.GridNodes = []int{1, 4}
	return p
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	exp, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	p := quickBench()
	var serial bench.Runner
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := serial.Run(exp, p)
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig5Bandwidth(b *testing.B)       { runFigure(b, "fig5") }
func BenchmarkFig6aDegreeWeak(b *testing.B)     { runFigure(b, "fig6a") }
func BenchmarkFig6bDegreeStrong(b *testing.B)   { runFigure(b, "fig6b") }
func BenchmarkFig7aCCWeak(b *testing.B)         { runFigure(b, "fig7a") }
func BenchmarkFig7bCCStrong(b *testing.B)       { runFigure(b, "fig7b") }
func BenchmarkFig8aSpMVRMATWeak(b *testing.B)   { runFigure(b, "fig8a") }
func BenchmarkFig8bDelegateGrowth(b *testing.B) { runFigure(b, "fig8b") }
func BenchmarkFig8cSpMVUniformWeak(b *testing.B) {
	runFigure(b, "fig8c")
}
func BenchmarkFig8dSpMVWebStrong(b *testing.B)    { runFigure(b, "fig8d") }
func BenchmarkAblationMailboxSize(b *testing.B)   { runFigure(b, "ablation-mailbox") }
func BenchmarkAblationExchangeStyle(b *testing.B) { runFigure(b, "ablation-exchange") }
func BenchmarkFig8xCrossover(b *testing.B)        { runFigure(b, "fig8x") }
func BenchmarkAblationStraggler(b *testing.B)     { runFigure(b, "ablation-straggler") }
func BenchmarkAblationZeroCopy(b *testing.B)      { runFigure(b, "ablation-zerocopy") }
func BenchmarkAblationBroadcast(b *testing.B)     { runFigure(b, "ablation-bcast") }
func BenchmarkTopologySummary(b *testing.B)       { runFigure(b, "topo") }
