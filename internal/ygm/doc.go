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
//	SyncExchange   the bulk-synchronous baseline of Section III-A: the
//	               round protocol without its capacity trigger, so a
//	               round (one ALLTOALLV per stage) runs only at explicit,
//	               collective Exchange calls and in WaitEmpty
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
// themselves done producing messages, flush, and the layer detects
// global quiescence by a global reduction. Each reduction (a generation)
// is one run of collective.Allreduce, the node-aware allreduce under
// Comm.Barrier too (a binomial tree per node, a butterfly among node
// leaders), which leaves the result, and so the verdict, on every rank.
// Either policy pays one generation per WaitEmpty. The lazy policy
// counts its work instead of sampling it: every processed data packet is
// acknowledged to its source, and a rank joins a zero-width generation —
// a nonblocking barrier — once everything it sent is acknowledged and it
// has queued and processed nothing since its previous wait point; a rank
// that joined and is engaged again by an arriving packet holds that
// packet's acknowledgement until it is quiet in that sense again, so the
// barrier's completion is the verdict (Dijkstra–Scholten detection
// closed by a barrier, as in NBX). The round-matched policy reduces
// every rank's completed-round count, snapshotted with nothing queued,
// and concludes when all agree, since a completed round leaves nothing
// of itself in flight and only a round can queue the records another
// round needs. The detector never blocks: the lazy Mailbox's WaitEmpty
// is one progress loop over the termination, acknowledgement and data
// streams — data keeps moving while the barrier is in flight, on a data
// tag of the phase's own so that what a faster rank sends for the next
// phase waits — TestEmpty runs the same pass between units of external
// work, and the round-matched policy steps its detector between rounds.
// The bulk-synchronous policy inherits the round policy's WaitEmpty;
// round-matched and bulk-synchronous exchanges cannot progress
// unilaterally, so their types do not have TestEmpty.
package ygm
