package transport

import "ygm/internal/machine"

// Tracer observes every packet-level event of a run, plus the
// virtual-time span boundaries and instant marks the layers above
// emit. It is the transport's diagnostic tap: ChromeTracer exports the
// events as a timeline. Packet conservation needs no tracer; Run's
// ledger checks it (PacketLossError).
//
// A Tracer is shared by all rank goroutines and must be safe for
// concurrent use: the span and mark methods fire on the goroutine of
// the rank they name, the packet methods as documented below. The
// default (nil) path costs one predictable branch per event and
// allocates nothing; implementations must not retain the
// payload-backed state of a packet beyond the call.
type Tracer interface {
	// PacketSent fires on the sender's goroutine after the packet has
	// been charged and before it is handed to the wire, so it precedes
	// the packet's PacketReceived: sent is the sender's virtual clock at
	// the end of SendPooled, arrive the packet's virtual arrival at dst.
	PacketSent(src, dst machine.Rank, tag Tag, size int, sent, arrive float64)
	// PacketReceived fires on the receiver's goroutine after a packet
	// has been popped and absorbed (Recv, Drain, or Poll): now is the
	// receiver's virtual clock after absorbing it.
	PacketReceived(src, dst machine.Rank, tag Tag, size int, now float64)
	// SpanBegin / SpanEnd bracket a named phase on one rank. Names are
	// drawn from a small fixed taxonomy (see DESIGN.md §9) and spans on
	// one rank nest properly: the most recently begun open span ends
	// first.
	SpanBegin(rank machine.Rank, name string, t float64)
	SpanEnd(rank machine.Rank, name string, t float64)
	// Mark records a labelled instant on one rank (termination
	// generation starts, flush causes), with an event-specific value.
	Mark(rank machine.Rank, name string, value uint64, t float64)
}

// DelayFn perturbs one packet's virtual flight time: the returned value
// (clamped to >= 0) is added to the model transfer time before the
// arrival timestamp is computed. It runs on the sender's goroutine, so
// per-source state needs no locking; implementations must be
// deterministic functions of their own seeded state for runs to stay
// reproducible. The simulation-fuzz harness uses it to jitter delivery
// schedules without touching delivery semantics.
type DelayFn func(src, dst machine.Rank, tag Tag, size int) float64
