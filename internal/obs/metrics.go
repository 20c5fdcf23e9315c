package obs

import (
	"fmt"
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

// Registry is one rank's named-metric table. Metric lookups happen at
// construction time — layers hold the returned pointer and update it
// directly on the hot path, so steady-state updates never touch the
// name maps. A Registry is confined to its owning rank's goroutine.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
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

// GaugeSnapshot is one gauge's frozen state.
type GaugeSnapshot struct {
	Last float64
	Max  float64
}

// Snapshot is a point-in-time copy of a registry, safe to retain and
// merge after the owning rank has moved on. It can be taken mid-run
// from the owning goroutine.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]GaugeSnapshot
}

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]GaugeSnapshot, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Last: g.last, Max: g.max}
	}
	return s
}

// Counter returns the named counter's value, or 0 when absent.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Merge combines s with other into a new Snapshot: counters add; gauges
// keep the largest high-water mark and its last value. Either side may be the
// zero Snapshot.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)+len(other.Counters)),
		Gauges:   make(map[string]GaugeSnapshot, len(s.Gauges)+len(other.Gauges)),
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
