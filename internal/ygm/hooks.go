package ygm

import "ygm/internal/machine"

// Tap observes mailbox-internal record movement. It is the oracle
// instrumentation point of the simulation-fuzz harness: every record
// entering a coalescing buffer (at the origin or at a forwarding
// intermediary) is reported before it is encoded, which lets an
// external oracle reconstruct the exact hop sequence of each logical
// message and compare it against machine.Path.
//
// RecordQueued is invoked on the goroutine of the queueing rank; a Tap
// shared across ranks must be safe for concurrent use. The payload
// slice may alias mailbox buffers and must not be retained or mutated.
// A nil Tap (the default) costs one branch per record and nothing else.
type Tap interface {
	// RecordQueued reports one record queued on rank at, bound for hop
	// on the next exchange. For unicast records dst is the final
	// destination; for broadcast-stage records dst is machine.Nil and
	// bcast is true.
	RecordQueued(at, hop, dst machine.Rank, bcast bool, payload []byte)
}

// TestHooks are deliberate fault-injection points, used exclusively by
// the simulation-fuzz mutation smoke tests to prove the delivery oracle
// has teeth: a harness whose oracle cannot catch a wrong next hop, a
// dropped delivery, or a premature termination verdict is vacuous.
// All fields nil (and the whole pointer nil) in production; each site
// guards with a single nil check, so the default path is unchanged.
type TestHooks struct {
	// NextHop, when non-nil, replaces topology routing for unicast
	// records (both at the origin and at intermediaries).
	NextHop func(t machine.Topology, s machine.Scheme, cur, dst machine.Rank) machine.Rank
	// DropDelivery, when non-nil and returning true, silently discards
	// a message instead of invoking the handler — a lost delivery that
	// leaves every transport-level counter balanced.
	DropDelivery func(at machine.Rank, payload []byte) bool
	// ForceVerdict, when non-nil, replaces the decision that ends a
	// quiescence phase, given the honest one. On the lazy policy it is
	// asked, at each wait point of a rank that has not joined the epoch's
	// barrier, whether to join now; honest is that the rank is quiet —
	// every data packet it sent has been acknowledged, and it queued and
	// processed nothing since its previous wait point — so returning true
	// while honest is false can join the barrier with packets still
	// unacknowledged: a premature verdict once every rank has joined. On the round policy it
	// replaces a generation's verdict; honest is that every rank reported
	// the same completed-round count, and every rank evaluates it on the
	// same result, concurrently. Either way the hook runs on rank
	// goroutines concurrently, so any state it keeps must be safe to
	// share, and on the round policy a result that differed between ranks
	// would split the world over whether the phase ended.
	ForceVerdict func(honest bool) bool
	// ReorderPacket, when non-nil and returning true for a packet,
	// makes the decode loop hold that packet's first record and dispatch
	// it after all its other records — inverting per-channel FIFO
	// whenever two same-channel deliveries were coalesced together,
	// while every transport- and delivery-level counter stays balanced.
	ReorderPacket func(at, src machine.Rank) bool
	// LeakDelivery, when non-nil and returning true, stashes one
	// delivery instead of invoking the handler and releases it at the
	// start of the next pass of the policy's quiescence loop, before any
	// join or snapshot that could end the phase (and, failing that, right
	// after the verdict) — late, but still inside the same quiescence
	// window, so the exactly-once oracle sees nothing while delivery
	// order breaks.
	LeakDelivery func(at machine.Rank, payload []byte) bool
}

// tapQueued reports one queued record to the tap, if any.
func (o *Options) tapQueued(at, hop, dst machine.Rank, kind recordKind, payload []byte) {
	if o.Tap != nil {
		o.Tap.RecordQueued(at, hop, dst, kind != kindUnicast, payload)
	}
}

// dropDelivery reports whether the drop-injection hook claims this
// delivery.
func (o *Options) dropDelivery(at machine.Rank, payload []byte) bool {
	return o.Hooks != nil && o.Hooks.DropDelivery != nil && o.Hooks.DropDelivery(at, payload)
}

// reorderPacket reports whether the reorder-injection hook claims this
// packet.
func (o *Options) reorderPacket(at, src machine.Rank) bool {
	return o.Hooks != nil && o.Hooks.ReorderPacket != nil && o.Hooks.ReorderPacket(at, src)
}

// forceVerdict returns the ForceVerdict hook's replacement for the honest
// phase-ending decision, or honest itself when no hook is installed.
func (o *Options) forceVerdict(honest bool) bool {
	if o.Hooks != nil && o.Hooks.ForceVerdict != nil {
		return o.Hooks.ForceVerdict(honest)
	}
	return honest
}

// leakDelivery reports whether the leak-injection hook claims this
// delivery.
func (o *Options) leakDelivery(at machine.Rank, payload []byte) bool {
	return o.Hooks != nil && o.Hooks.LeakDelivery != nil && o.Hooks.LeakDelivery(at, payload)
}
