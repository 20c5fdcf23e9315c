package transport

import (
	"time"

	"ygm/internal/machine"
	"ygm/internal/netsim"
)

// ConfigOption adjusts one field of a Config under construction; see
// NewConfig.
type ConfigOption func(*Config)

// NewConfig assembles a run Config for topo from functional options —
// the front door used by the benches, the fuzz harness, the commands,
// and the examples. The Config struct's fields remain exported as the
// documented escape hatch (tests that poke many fields at once read
// better as literals), but new call sites should prefer this
// constructor: it keeps field spelling in one place and makes the
// common case (`NewConfig(topo, WithSeed(s))`) a one-liner.
func NewConfig(topo machine.Topology, opts ...ConfigOption) Config {
	cfg := Config{Topo: topo}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithModel selects the netsim cost model (ignored by real-time wires;
// the zero value defaults to netsim.Quartz()).
func WithModel(m netsim.Model) ConfigOption {
	return func(c *Config) { c.Model = m }
}

// WithSeed seeds the deterministic per-rank random sources.
func WithSeed(seed int64) ConfigOption {
	return func(c *Config) { c.Seed = seed }
}

// WithTrace attaches a Tracer to every packet event, span and mark.
func WithTrace(t Tracer) ConfigOption {
	return func(c *Config) { c.Trace = t }
}

// WithWire selects the transport backend; nil (the default) is the
// virtual-time SimWire. See the Wire interface and DESIGN.md §13.
func WithWire(w Wire) ConfigOption {
	return func(c *Config) { c.Wire = w }
}

// WithWatchdogInterval sets the deadlock watchdog's polling cadence
// (negative disables it; see Config.WatchdogInterval).
func WithWatchdogInterval(d time.Duration) ConfigOption {
	return func(c *Config) { c.WatchdogInterval = d }
}

// WithComputeScale installs a per-rank straggler multiplier (simulated
// wires only; see Config.ComputeScale).
func WithComputeScale(f func(machine.Rank) float64) ConfigOption {
	return func(c *Config) { c.ComputeScale = f }
}
