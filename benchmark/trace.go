package main

import (
	"sort"
	"time"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// sampleWeight is the inverse sampling rate of the per-operation spans
// (generate, send, handler): one operation in 64 is timed and stands
// for 64 in every aggregate.
const sampleWeight = 64

// maxSpans bounds the spans a run keeps for the trace file, shared
// evenly among its ranks; maxSampledSpans bounds, per rank, how many of
// those may be sampled per-operation spans, which would otherwise fill
// the list in the first percent of a run. Aggregates stay exact past
// both caps.
const (
	maxSpans        = 60000
	maxSampledSpans = 256
)

// Span is one closed interval on one rank, in host seconds since the
// child process started. Parent indexes the span list it is written in
// (-1 for a root). Weight is how many real operations the span stands for.
type Span struct {
	Rank   int32   `json:"rank"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int32   `json:"parent"`
	Weight int32   `json:"weight"`
}

// SpanAgg sums one span name: weighted count, weighted total seconds,
// and weighted self seconds — total minus the (weighted) time its
// direct children covered. Cut is the weighted count of sampled spans
// dropped as descheduled (see preemptCutoff); the other three are
// scaled up to stand for them.
type SpanAgg struct {
	Count float64 `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
	Cut   float64 `json:"cut,omitempty"`
}

// preemptCutoff separates a sampled block that ran from one that was
// descheduled in the middle. A block of 64 operations takes a few
// microseconds, tens when it processes arrivals; the Go scheduler's time
// slices are a millisecond and up. With more ranks than cores a span
// measures wall time, and one preempted block, weighted ×64, would
// outweigh thousands of honest ones — so sampled spans past the cutoff
// are dropped and the rest re-weighted. Unsampled spans (comm context,
// drain, WaitEmpty) keep whatever descheduled time falls inside them.
const preemptCutoff = 500 * time.Microsecond

type openSpan struct {
	name    string
	start   time.Duration
	covered time.Duration // weighted duration of closed direct children
	index   int32
}

// rankTrace is one rank's tracer state, touched only by that rank's
// goroutine (the transport fires every span callback on the goroutine
// of the rank it names).
type rankTrace struct {
	stack   []openSpan
	agg     map[string]*SpanAgg
	spans   []Span
	sampled int
	dropped int
}

// Tracer is the benchmark's transport.Tracer and SpanObserver: it
// receives the spans the runtime already emits (lazy.commctx,
// lazy.drain, lazy.waitempty, round.*, coll.*) and the spans the
// workload bodies add around their calls into a layer. All of them are
// timed on the host clock here — the virtual timestamps the sim wire
// passes are ignored — so nested program and benchmark spans share one
// time base.
type Tracer struct {
	// virtual marks a sim-wire run: the runtime's spans then carry the
	// rank's simulated clock, benchmark-side spans pass it explicitly
	// (beginAt/endAt), and nothing is calibrated or cut — host time
	// inside a span of one of 2048 ranks sharing two cores is mostly
	// time spent waiting for a worker token.
	virtual bool
	ranks   []*rankTrace
	// spanCap is each rank's share of maxSpans.
	spanCap int
	// clockCost is what an empty span measures (see calibrate),
	// subtracted from every span so that sampled nanosecond-scale spans
	// do not report the timer.
	clockCost time.Duration
}

func newTracer(world int, virtual bool) *Tracer {
	t := &Tracer{virtual: virtual, ranks: make([]*rankTrace, world), spanCap: maxSpans / world}
	for i := range t.ranks {
		t.ranks[i] = &rankTrace{agg: make(map[string]*SpanAgg)}
	}
	if !virtual {
		t.clockCost = t.calibrate()
	}
	return t
}

// calibrate measures what an empty span reports: the median duration of
// a begin/end pair around nothing, on a scratch rank, in a hot loop.
func (t *Tracer) calibrate() time.Duration {
	const n = 2001
	scratch := &Tracer{ranks: []*rankTrace{{agg: make(map[string]*SpanAgg)}}}
	ds := make([]float64, n)
	for i := range ds {
		scratch.begin(0, "calibrate", false)
		scratch.end(0, 1)
		ds[i] = scratch.ranks[0].agg["calibrate"].Total
		*scratch.ranks[0].agg["calibrate"] = SpanAgg{}
	}
	sort.Float64s(ds)
	return time.Duration(ds[n/2] * 1e9)
}

// begin opens a span on rank at the host clock. sampled marks a
// per-operation span that end will close with sampleWeight.
func (t *Tracer) begin(rank int, name string, sampled bool) {
	t.open(rank, name, sampled)
	// Read the clock last so the bookkeeping above stays outside the span.
	st := t.ranks[rank].stack
	st[len(st)-1].start = sinceStart()
}

// beginAt opens a span at a time the caller supplies (the simulated
// clock on the sim wire).
func (t *Tracer) beginAt(rank int, name string, sampled bool, at time.Duration) {
	t.open(rank, name, sampled)
	st := t.ranks[rank].stack
	st[len(st)-1].start = at
}

func (t *Tracer) open(rank int, name string, sampled bool) {
	rt := t.ranks[rank]
	// A span takes its slot in the list when it opens, so children that
	// close first can name it as their parent.
	index, parent := int32(-1), int32(-1)
	if n := len(rt.stack); n > 0 {
		parent = rt.stack[n-1].index
	}
	keep := len(rt.spans) < t.spanCap
	if sampled {
		keep = keep && rt.sampled < maxSampledSpans
		rt.sampled++
	}
	if keep {
		index = int32(len(rt.spans))
		rt.spans = append(rt.spans, Span{Rank: int32(rank), Name: name, Parent: parent})
	} else {
		rt.dropped++
	}
	rt.stack = append(rt.stack, openSpan{name: name, index: index})
}

func (t *Tracer) end(rank int, weight int32) { t.endAt(rank, weight, sinceStart()) }

func (t *Tracer) endAt(rank int, weight int32, now time.Duration) {
	rt := t.ranks[rank]
	top := rt.stack[len(rt.stack)-1]
	rt.stack = rt.stack[:len(rt.stack)-1]
	d := max(now-top.start-t.clockCost, 0)
	w := float64(weight)
	a := rt.agg[top.name]
	if a == nil {
		a = &SpanAgg{}
		rt.agg[top.name] = a
	}
	if top.index >= 0 {
		sp := &rt.spans[top.index]
		sp.Start, sp.End, sp.Weight = top.start.Seconds(), now.Seconds(), weight
	}
	if weight > 1 && d > preemptCutoff && !t.virtual {
		a.Cut += w
		return
	}
	a.Count += w
	a.Total += w * d.Seconds()
	a.Self += w * (d - top.covered).Seconds()
	if n := len(rt.stack); n > 0 {
		rt.stack[n-1].covered += time.Duration(weight) * d
	}
}

// transport.Tracer: packet counts already come from transport.Stats, so
// the per-packet callbacks do nothing.
func (t *Tracer) PacketSent(src, dst machine.Rank, tag transport.Tag, size int, sent, arrive float64) {
}
func (t *Tracer) PacketReceived(src, dst machine.Rank, tag transport.Tag, size int, now float64) {}

// transport.SpanObserver.
func (t *Tracer) SpanBegin(rank machine.Rank, name string, at float64) {
	if t.virtual {
		t.beginAt(int(rank), name, false, time.Duration(at*1e9))
		return
	}
	t.begin(int(rank), name, false)
}

func (t *Tracer) SpanEnd(rank machine.Rank, name string, at float64) {
	if t.virtual {
		t.endAt(int(rank), 1, time.Duration(at*1e9))
		return
	}
	t.end(int(rank), 1)
}

// Mark instants (termination generations) are already counted by
// ygm.Stats.
func (t *Tracer) Mark(machine.Rank, string, uint64, float64) {}

// collect merges the per-rank state after the run: aggregates add (each
// rank's kept samples first scaled up to stand for the ones it cut),
// span lists concatenate.
func (t *Tracer) collect() (agg map[string]SpanAgg, spans []Span, dropped int) {
	agg = make(map[string]SpanAgg)
	for _, rt := range t.ranks {
		for name, a := range rt.agg {
			scale := 1.0
			if a.Count > 0 {
				scale = (a.Count + a.Cut) / a.Count
			}
			sum := agg[name]
			sum.Count += a.Count * scale
			sum.Total += a.Total * scale
			sum.Self += a.Self * scale
			sum.Cut += a.Cut
			agg[name] = sum
		}
		spans = appendSpans(spans, rt.spans)
		dropped += rt.dropped
	}
	return agg, spans, dropped
}

// appendSpans appends one list's spans to another, shifting parent
// indexes to the combined list.
func appendSpans(dst, src []Span) []Span {
	base := int32(len(dst))
	for _, sp := range src {
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		dst = append(dst, sp)
	}
	return dst
}
