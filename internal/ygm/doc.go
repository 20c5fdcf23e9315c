// Package ygm is the core of this reproduction: the You've Got Mail
// pseudo-asynchronous communication layer of Priest, Steil, Sanders and
// Pearce (IPPS 2019), rebuilt in Go on the simulated-cluster transport.
//
// Programs construct a mailbox with New, giving a receive callback and
// functional options, queue point-to-point messages with Send and
// broadcasts with Broadcast, and finish with WaitEmpty:
//
//	mb := ygm.New(p, handler,
//	    ygm.WithScheme(machine.NLNR),
//	    ygm.WithCapacity(1<<10))
//	mb.Send(dst, payload)
//	mb.Broadcast(payload)
//	mb.WaitEmpty()
//
// When the mailbox fills, the rank enters a communication context: it
// flushes its coalescing buffers along the routing scheme's next hops
// and opportunistically processes arrived messages — without a global
// barrier, so a slow rank delays only the ranks whose messages route
// through it.
//
// There is one mailbox. An unexported core owns what every exchange
// discipline shares — routing, broadcast fan-out, placement of records
// into per-partner coalescing buffers, the packet decode loop, dispatch
// and delivery — and New returns a Box over one of three exchange
// policies embedding it, selected by WithExchange. A policy decides only
// when a full queue triggers an exchange, how the staged buffers move,
// and what WaitEmpty waits for:
//
//	RoundExchange  the paper's round-matched protocol (default): a full
//	               queue runs a round — exactly one packet, possibly
//	               empty, to every stage partner and one from each — so
//	               packet arrival patterns match the paper's
//	LazyExchange   a full queue flushes what is buffered and polls
//	               opportunistically, with no round structure; the one
//	               policy whose *Mailbox also offers TestEmpty, the
//	               nonblocking poll of the HavoqGT pattern
//	SyncExchange   the bulk-synchronous baseline of Section III-A: one
//	               ALLTOALLV per stage, driven by explicit Exchange calls
//
// Four routing schemes are provided (Section III of the paper):
//
//	NoRoute     direct core-to-core sends (baseline)
//	NodeLocal   local exchange first, then C per-core-offset remote channels
//	NodeRemote  remote exchange first, then local delivery
//	NLNR        local, remote, local; one channel per node pair (layers)
//
// Messages between co-located ranks travel through simulated shared
// memory; off-node hops pay wire costs, so coalescing many small records
// into few large packets — the point of the routing schemes — shows up
// directly in simulated time and in the traffic statistics.
//
// # Allocation discipline
//
// The steady-state queue→coalesce→pack→send→deliver path performs zero
// heap allocations per message under every policy (pinned by the
// testing.AllocsPerRun tests in alloc_test.go and catalogued in
// DESIGN.md §8): coalescing buffers live in dense per-partner slots
// that are reused across flushes, packet payloads come from the
// transport's buffer pool, and delivery hands the handler a slice that
// aliases the pooled packet. The flip side is a retention contract: a
// handler that keeps a payload after returning must copy it. The
// AllocsPerRun pins (Test{Lazy,Round,Sync}SteadyStateZeroAlloc) are
// what hold the path to zero: an allocation added anywhere on it fails
// them.
//
// Termination detection follows the paper's Section IV-B: ranks declare
// themselves done producing messages, flush (including empty buffers —
// here, counter reports), and the layer detects global quiescence by a
// counting consensus: record-hop send and receive totals must balance and
// equal the totals of the previous global reduction. Each reduction (a
// generation) is one run of collective.Allreduce, the recursive-doubling
// allreduce under Comm.Barrier too, which leaves the totals, and so the
// verdict, on every rank after log2(P) exchanges; the totals
// of the last quiescent instant are kept, so a WaitEmpty with nothing
// sent since costs one generation. The detector never blocks: the lazy
// Mailbox's WaitEmpty is one progress loop over the termination and data
// streams — data keeps moving while a generation is in flight, except
// while that generation may be the final one, when what sits in the
// inbox may already belong to the next phase — TestEmpty steps the same
// machine between units of external work, and the round-matched policy
// steps it between rounds. Collective exchanges detect quiescence on
// their own; round-matched and collective exchanges cannot progress
// unilaterally, so their types do not have TestEmpty.
package ygm
