package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge tracks an instantaneous level and its high-water mark.
type Gauge struct{ last, max float64 }

// Set records the current level, raising the high-water mark.
func (g *Gauge) Set(v float64) {
	g.last = v
	if v > g.max {
		g.max = v
	}
}

// Value returns the most recently set level.
func (g *Gauge) Value() float64 { return g.last }

// Max returns the high-water mark.
func (g *Gauge) Max() float64 { return g.max }

// HistBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// zeros and bucket i holds [2^(i-1), 2^i). 32 buckets cover every
// payload size the transport can carry.
const HistBuckets = 32

// Histogram is a power-of-two-bucketed distribution of uint64
// observations (message sizes, depths). Observation is a bit-length
// computation and two increments — cheap enough for the send path.
type Histogram struct {
	counts [HistBuckets]uint64
	sum    uint64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.counts[b]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the total of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Registry is one rank's named-metric table. Metric lookups happen at
// construction time — layers hold the returned pointer and update it
// directly on the hot path, so steady-state updates never touch the
// name maps. A Registry is confined to its owning rank's goroutine.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// GaugeSnapshot is one gauge's frozen state.
type GaugeSnapshot struct {
	Last float64
	Max  float64
}

// HistSnapshot is one histogram's frozen state.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [HistBuckets]uint64
}

// Mean returns the average observation, or 0 when empty.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, safe to retain and
// merge after the owning rank has moved on. It can be taken mid-run
// from the owning goroutine.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]GaugeSnapshot
	Hists    map[string]HistSnapshot
}

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]GaugeSnapshot, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Last: g.last, Max: g.max}
	}
	for name, h := range r.hists {
		s.Hists[name] = HistSnapshot{Count: h.n, Sum: h.sum, Buckets: h.counts}
	}
	return s
}

// Counter returns the named counter's value, or 0 when absent.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Merge combines s with other into a new Snapshot: counters and
// histograms add (counts, sums, buckets elementwise); gauges keep the
// largest high-water mark and its last value. Either side may be the
// zero Snapshot.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)+len(other.Counters)),
		Gauges:   make(map[string]GaugeSnapshot, len(s.Gauges)+len(other.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)+len(other.Hists)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	for name, v := range other.Counters {
		out.Counters[name] += v
	}
	for name, g := range s.Gauges {
		out.Gauges[name] = g
	}
	for name, g := range other.Gauges {
		if have, ok := out.Gauges[name]; !ok || g.Max > have.Max {
			out.Gauges[name] = g
		}
	}
	for name, h := range s.Hists {
		out.Hists[name] = h
	}
	for name, h := range other.Hists {
		have := out.Hists[name]
		have.Count += h.Count
		have.Sum += h.Sum
		for i := range have.Buckets {
			have.Buckets[i] += h.Buckets[i]
		}
		out.Hists[name] = have
	}
	return out
}

// MergeSnapshots folds any number of snapshots into one.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out = out.Merge(s)
	}
	return out
}

// String renders the snapshot with one metric per line, sorted by name
// within each kind — the human-readable dump Report consumers print.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %-32s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		fmt.Fprintf(&b, "gauge   %-32s last=%g max=%g\n", name, g.Last, g.Max)
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		fmt.Fprintf(&b, "hist    %-32s n=%d sum=%d mean=%.1f\n", name, h.Count, h.Sum, h.Mean())
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
