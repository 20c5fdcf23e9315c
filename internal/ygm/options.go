package ygm

import (
	"fmt"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// YgmcheckEnabled reports whether the build carries the ygmcheck runtime
// invariant layer, whose assertions box their arguments — packages
// layered on the mailbox (the container engine) skip their zero-alloc
// pins on instrumented builds, mirroring this package's own pins.
func YgmcheckEnabled() bool { return ygmcheckEnabled }

// Option configures a mailbox built by New. Options compose left to
// right; later options override earlier ones.
type Option func(*Options)

// WithOptions overlays a fully assembled Options record, every field at
// once — how the app and engine configs, which carry one, compose with
// New. Options after it still override.
func WithOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// WithScheme selects the routing protocol (default machine.NoRoute).
func WithScheme(s machine.Scheme) Option {
	return func(o *Options) { o.Scheme = s }
}

// WithExchange selects the exchange semantics: RoundExchange (default),
// LazyExchange, or SyncExchange.
func WithExchange(e ExchangeStyle) Option {
	return func(o *Options) { o.Exchange = e }
}

// WithCapacity sets the number of queued records that triggers an
// exchange — the paper's "mailbox size" (default 1024).
func WithCapacity(n int) Option {
	return func(o *Options) { o.Capacity = n }
}

// WithTap installs oracle instrumentation observing every queued record
// (testing only; see Tap).
func WithTap(t Tap) Option {
	return func(o *Options) { o.Tap = t }
}

// WithHooks installs fault-injection hooks (testing only; see TestHooks).
func WithHooks(h *TestHooks) Option {
	return func(o *Options) { o.Hooks = h }
}

// New builds the mailbox variant selected by the options (RoundExchange
// by default) on rank p with the given receive handler. It panics on a
// nil handler or an invalid configuration: mailbox construction is
// collective — every rank must construct one with identical options —
// so a bad configuration is a programming error, not a runtime
// condition.
//
// This is the single constructor for all three exchange styles:
//
//	mb := ygm.New(p, handler,
//	    ygm.WithScheme(machine.NLNR),
//	    ygm.WithExchange(ygm.LazyExchange),
//	    ygm.WithCapacity(1<<18))
func New(p *transport.Proc, handler Handler, opts ...Option) Box {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	var (
		mb  Box
		err error
	)
	switch o.Exchange {
	case LazyExchange:
		mb, err = newLazy(p, handler, o)
	case RoundExchange:
		mb, err = newRound(p, handler, o)
	case SyncExchange:
		mb, err = newSync(p, handler, o)
	default:
		err = fmt.Errorf("ygm: unknown exchange style %v", o.Exchange)
	}
	if err != nil {
		panic(err) // nil handler or unknown scheme: programming error
	}
	return mb
}
