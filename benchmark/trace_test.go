package main

import (
	"math"
	"testing"
	"time"
)

// A span's self time is its duration less what its direct children
// covered; a sampled child counts sampleWeight times.
func TestTracerSelfTimeAndWeights(t *testing.T) {
	tr := newTracer(2, false)
	tr.clockCost = 0
	spin := func(d time.Duration) {
		for end := sinceStart() + d; sinceStart() < end; {
		}
	}
	tr.begin(1, "outer", false)
	spin(2 * time.Millisecond)
	tr.begin(1, "inner", false)
	spin(3 * time.Millisecond)
	tr.end(1, 1)
	tr.begin(1, "sampled", true)
	spin(10 * time.Microsecond)
	tr.end(1, sampleWeight)
	tr.end(1, 1)

	agg, spans, dropped := tr.collect()
	if dropped != 0 || len(spans) != 3 {
		t.Fatalf("collected %d spans, %d dropped", len(spans), dropped)
	}
	outer, inner, sampled := agg["outer"], agg["inner"], agg["sampled"]
	if outer.Count != 1 || inner.Count != 1 || sampled.Count != sampleWeight {
		t.Errorf("counts: outer %v inner %v sampled %v", outer.Count, inner.Count, sampled.Count)
	}
	if inner.Total < 0.003 || inner.Total > 0.02 {
		t.Errorf("inner total %v s, want about 0.003", inner.Total)
	}
	if want := outer.Total - inner.Total - sampled.Total; math.Abs(outer.Self-want) > 1e-9 {
		t.Errorf("outer self %v, want total − children = %v", outer.Self, want)
	}
	if spans[0].Name != "outer" || spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 0 {
		t.Errorf("parent links wrong: %+v", spans)
	}
	if spans[2].Weight != sampleWeight || spans[1].Weight != 1 {
		t.Errorf("weights wrong: %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child not nested in parent: %+v", spans)
	}
}

func TestTracerCapsKeptSpansNotAggregates(t *testing.T) {
	tr := newTracer(1, false)
	for i := 0; i < maxSampledSpans+100; i++ {
		tr.begin(0, "op", true)
		tr.end(0, sampleWeight)
	}
	agg, spans, dropped := tr.collect()
	if len(spans) != maxSampledSpans || dropped != 100 {
		t.Errorf("kept %d spans, dropped %d", len(spans), dropped)
	}
	if got := agg["op"].Count; got != float64((maxSampledSpans+100)*sampleWeight) {
		t.Errorf("aggregate count %v lost spans past the cap", got)
	}
}

func TestAppendSpansShiftsParents(t *testing.T) {
	a := []Span{{Name: "a0", Parent: -1}, {Name: "a1", Parent: 0}}
	b := []Span{{Name: "b0", Parent: -1}, {Name: "b1", Parent: 0}}
	got := appendSpans(append([]Span(nil), a...), b)
	if got[2].Parent != -1 || got[3].Parent != 2 {
		t.Errorf("parents after append: %+v", got)
	}
}

// A sampled span that outlasts preemptCutoff was descheduled, not slow:
// it is cut and the kept samples stand for it.
func TestTracerCutsDescheduledSamples(t *testing.T) {
	tr := newTracer(1, false)
	tr.clockCost = 0
	for _, d := range []time.Duration{10, 10, 10, 2000} {
		tr.beginAt(0, "op", true, 0)
		tr.endAt(0, sampleWeight, d*time.Microsecond)
	}
	tr.beginAt(0, "whole", false, 0)
	tr.endAt(0, 1, 2*time.Millisecond) // unsampled spans are never cut
	agg, _, _ := tr.collect()
	op := agg["op"]
	if op.Cut != sampleWeight || op.Count != 4*sampleWeight {
		t.Errorf("cut %v count %v, want %d and %d", op.Cut, op.Count, sampleWeight, 4*sampleWeight)
	}
	if want := 4 * sampleWeight * 10e-6; math.Abs(op.Total-want) > 1e-9 {
		t.Errorf("total %v s, want %v: three kept samples scaled to four", op.Total, want)
	}
	if whole := agg["whole"]; whole.Cut != 0 || whole.Count != 1 || math.Abs(whole.Total-2e-3) > 1e-12 {
		t.Errorf("unsampled span: %+v", whole)
	}
}

// On the sim wire spans run on the simulated clock the runtime passes.
func TestTracerVirtualClock(t *testing.T) {
	tr := newTracer(1, true)
	tr.SpanBegin(0, "round.exchange", 1.0)
	tr.SpanBegin(0, "stage0", 1.25)
	tr.SpanEnd(0, "stage0", 1.75)
	tr.SpanEnd(0, "round.exchange", 3.0)
	agg, spans, _ := tr.collect()
	if got := agg["round.exchange"]; math.Abs(got.Total-2) > 1e-9 || math.Abs(got.Self-1.5) > 1e-9 {
		t.Errorf("round.exchange = %+v, want total 2 self 1.5 simulated seconds", got)
	}
	if spans[1].Start != 1.25 || spans[1].End != 1.75 || spans[1].Parent != 0 {
		t.Errorf("stage span = %+v", spans[1])
	}
}
