package transport

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/obs"
)

// Proc is the per-rank handle passed to the SPMD body. It bundles the
// rank's identity, virtual clock, inbox, traffic stats, and a
// deterministic per-rank random source. A Proc is confined to the
// goroutine running its rank; it must not be shared.
type Proc struct {
	world *World
	rank  machine.Rank
	clock netsim.Clock
	stats Stats
	rng   *rand.Rand

	// rt is non-nil when the run's wire is real-time (LocalWire,
	// TCPWire): the rank's clock is then host seconds since the world
	// epoch, every netsim model charge is skipped (the costs are real
	// instructions and real wire latency), and wait time is measured
	// around the rank's parks, which its inbox times (Inbox.sleep). Nil
	// on the simulated path, so the hot paths pay one predictable nil
	// check.
	rt *rtClock

	computeScale float64

	// checkLastNow is the last virtual time observed by the ygmcheck
	// clock-monotonicity assertion; unused in default builds.
	checkLastNow float64

	// commNonce counts communicator constructions on this rank; see
	// CommNonce.
	commNonce uint64

	// lastArrive tracks, per (dst, tag) channel, the latest arrival time
	// this rank has assigned to a packet. Allocated only when a delay
	// injector is active: injected delays must not let a later send
	// overtake an earlier one on the same channel, or they would violate
	// the MPI non-overtaking guarantee the upper layers rely on.
	lastArrive map[chanKey]float64

	// metrics is this rank's named-metric registry.
	metrics *obs.Registry

	// rec is this rank's flight recorder — a ring of recent events
	// (sends, receives, arrival jumps, marks) dumped by deadlock and
	// panic paths.
	rec *obs.Recorder

	// cache is this rank's packets and pooled buffers, in front of the
	// world's shared pool; see poolCache.
	cache poolCache
}

// chanKey identifies one ordered (destination, tag) channel.
type chanKey struct {
	dst machine.Rank
	tag Tag
}

// rtClock is a rank's real-time clock state, shared by the rank and its
// inbox: epoch is the world's, and wait accumulates the host seconds the
// rank spent parked on its inbox's wake channel — the inbox reads the
// clock on either side of each park and nowhere else — so Busy = Now -
// wait mirrors the netsim clock's busy/wait split in measured form. A
// wait satisfied while spinning reads no clock and counts as busy.
type rtClock struct {
	epoch time.Time
	wait  float64
}

func (c *rtClock) now() float64 { return hostSince(c.epoch) }

// now returns this rank's clock in seconds: virtual netsim time on the
// simulated path, host seconds since the world epoch in real time.
func (p *Proc) now() float64 {
	if p.rt != nil {
		return p.rt.now()
	}
	return p.clock.Now()
}

// clocks returns a consistent (now, busy, wait) snapshot in the run's
// time base. Under a real-time wire all three derive from one host
// clock reading, so RankReport.Time == Busy + Wait holds exactly
// instead of drifting by the interval between two clock reads.
func (p *Proc) clocks() (now, busy, wait float64) {
	if p.rt != nil {
		now = p.rt.now()
		return now, now - p.rt.wait, p.rt.wait
	}
	return p.clock.Now(), p.clock.Busy(), p.clock.Wait()
}

// Rank returns this rank's flat identifier.
func (p *Proc) Rank() machine.Rank { return p.rank }

// Node returns this rank's node offset.
func (p *Proc) Node() int { return p.world.topo.Node(p.rank) }

// Core returns this rank's core offset within its node.
func (p *Proc) Core() int { return p.world.topo.Core(p.rank) }

// Topo returns the cluster topology.
func (p *Proc) Topo() machine.Topology { return p.world.topo }

// WorldSize returns the total rank count.
func (p *Proc) WorldSize() int { return p.world.topo.WorldSize() }

// Model returns the network cost model in effect.
func (p *Proc) Model() *netsim.Model { return &p.world.model }

// Now returns this rank's clock in seconds: virtual netsim time under a
// simulated wire, host seconds since the run epoch under a real-time
// wire.
func (p *Proc) Now() float64 { return p.now() }

// Stats exposes this rank's traffic counters (read-only use expected).
func (p *Proc) Stats() *Stats { return &p.stats }

// Rng returns a deterministic per-rank random source seeded from the
// Config seed and the rank id.
func (p *Proc) Rng() *rand.Rand { return p.rng }

// CommNonce returns an incrementing per-rank counter. The collective
// layer folds it into each communicator's tag space so that distinct
// communicators with identical member lists (which hash alike) cannot
// cross-talk. Communicator construction is collective and happens in
// program order on every member, so all members of one communicator
// observe the same nonce.
func (p *Proc) CommNonce() uint64 {
	p.commNonce++
	return p.commNonce
}

// Compute advances the virtual clock by d seconds of application work,
// scaled by any straggler factor configured for this rank. Under a
// real-time wire this is a no-op (beyond argument validation): the work
// the charge models is real instructions there, and simulating extra
// load would double-count it.
func (p *Proc) Compute(d float64) {
	if d < 0 {
		panic("transport: negative compute time")
	}
	if p.rt != nil {
		return
	}
	p.clock.Advance(d * p.computeScale)
	p.checkClockMonotone()
}

// AcquireBuf returns a length-n payload buffer from this rank's cache,
// which refills from the world's shared pool in batches (allocating only
// when both are dry). The receiver's Recycle returns it — the cycle that
// keeps steady-state mailbox traffic allocation-free.
func (p *Proc) AcquireBuf(n int) []byte { return p.cache.getBuf(n) }

// Recycle returns a received packet and its payload buffer to this
// rank's cache, which spills to the world's shared pool in batches. The
// caller must not touch pkt or its payload afterwards. Every received
// packet must be recycled exactly once, which Run checks at the end of a
// clean run (PacketLeakError).
func (p *Proc) Recycle(pkt *Packet) {
	p.stats.Recycles++
	p.cache.put(pkt)
}

// SendPooled transmits payload to dst under tag. The sender is charged
// the send overhead; the packet's virtual arrival is the sender's clock
// plus the local or remote transfer time from the cost model. The
// payload joins the transport's pool, whether it came from AcquireBuf or
// not: the sender must not retain it, and the receiver may read it only
// until Recycle takes it back.
func (p *Proc) SendPooled(dst machine.Rank, tag Tag, payload []byte) {
	w := p.world
	if !w.topo.Valid(dst) {
		panic(fmt.Sprintf("transport: send to invalid rank %d", dst))
	}
	local := w.topo.SameNode(p.rank, dst)
	// sent is the rank's clock at the send, arrive the packet's stamp.
	var sent, arrive float64
	if p.rt != nil {
		// Real-time wire: overheads and transfer times are real
		// instructions and real latency, not model charges. The arrival
		// stamp is the sender's host clock — the one clock read a send
		// makes; a remote backend re-stamps on the receiving host so
		// clock skew can never place a packet in the receiver's past.
		sent = p.now()
		arrive = sent
	} else {
		p.clock.Advance(w.model.SendOverheadFor(local))
		var transfer float64
		if local {
			transfer = w.model.LocalTransferTime(len(payload))
		} else {
			transfer = w.model.RemoteTransferTime(len(payload))
		}
		if w.delay != nil {
			if extra := w.delay(p.rank, dst, tag, len(payload)); extra > 0 {
				transfer += extra
			}
		}
		sent = p.clock.Now()
		arrive = sent + transfer
		if w.delay != nil {
			// Clamp so injected delay never reorders a channel.
			if p.lastArrive == nil {
				p.lastArrive = make(map[chanKey]float64)
			}
			key := chanKey{dst: dst, tag: tag}
			if last := p.lastArrive[key]; arrive < last {
				arrive = last
			}
			p.lastArrive[key] = arrive
		}
	}
	p.stats.recordSend(tag, len(payload), local)
	pkt := p.cache.getPkt()
	pkt.Src = p.rank
	pkt.Tag = tag
	pkt.Arrive = arrive
	pkt.Payload = payload
	// Record and trace before Inject: once the wire has the packet the
	// receiver may pop it and report PacketReceived, and a send that is
	// not yet on record then has no arrow to end.
	p.rec.Record(obs.Event{Kind: obs.KSend, T: sent, Peer: int32(dst), Tag: uint64(tag), Size: int64(len(payload))})
	if w.trace != nil {
		w.trace.PacketSent(p.rank, dst, tag, len(payload), sent, arrive)
	}
	w.wire.Inject(p, dst, pkt)
}

// Recv blocks until a packet with the given tag arrives, fast-forwards
// the clock to its virtual arrival (accruing wait time), charges the
// receive overhead, and returns it. If the run's deadlock watchdog
// determined that every active rank is blocked, Recv records this rank's
// state and unwinds the rank instead of hanging forever.
func (p *Proc) Recv(tag Tag) *Packet {
	ib := p.world.inboxes[p.rank]
	pkt := ib.TryPop(tag)
	if pkt == nil {
		p.await(ib, tag)
		pkt = ib.TryPop(tag)
	}
	p.absorb(pkt)
	return pkt
}

// WaitAny blocks until a packet is physically present under any of tags
// and consumes nothing: the caller drains what it finds and absorbs each
// packet as it uses it, so waiting here moves no virtual clock. It is
// the blocking step of a progress loop that serves several streams (a
// mailbox's termination and data traffic). A deadlocked run unwinds the
// rank as Recv does, reported as blocked on tags[0].
func (p *Proc) WaitAny(tags ...Tag) {
	if !p.Pending(tags...) {
		p.await(p.world.inboxes[p.rank], tags...)
	}
}

// Pending reports whether a packet is physically queued under any of
// tags, whether or not it has virtually arrived. It never blocks and
// consumes nothing.
func (p *Proc) Pending(tags ...Tag) bool {
	ib := p.world.inboxes[p.rank]
	ib.absorb()
	return ib.has(tags)
}

// await blocks the rank until one of tags has a packet, after a first
// look found none. It reads no clock: under a real-time wire the inbox
// times only the sleep of an actual park, so a wait that the spin phase
// satisfies costs no reading and counts as busy.
func (p *Proc) await(ib *Inbox, tags ...Tag) {
	if !ib.WaitAny(tags...) {
		p.deadlockExit(tags[0])
	}
}

// Poll returns the earliest packet with the given tag whose arrival is
// at or before this rank's clock, or nil. Polling never advances the
// clock past the present (beyond the receive overhead). Under a
// real-time wire every physically queued packet has already arrived
// (stamps are taken before the push, on the receiving host's clock), so
// Poll degenerates to a nonblocking pop and reads no clock.
func (p *Proc) Poll(tag Tag) *Packet {
	now := math.Inf(1)
	if p.rt == nil {
		now = p.clock.Now()
	}
	pkt := p.world.inboxes[p.rank].pop(tag, now)
	if pkt != nil {
		p.absorb(pkt) // already arrived: no wait, just the receive overhead
	}
	return pkt
}

// DrainBatch removes every physically present packet under tag,
// regardless of virtual arrival, after one pass over the inbox's pushed
// packets, appending them to scratch in virtual-arrival order, and
// returns the extended slice. It does NOT absorb: the caller must Absorb
// each packet as it processes it, which keeps the per-packet clock
// accounting of a pop-at-a-time drain with one tag lookup per batch.
func (p *Proc) DrainBatch(tag Tag, scratch []*Packet) []*Packet {
	return p.world.inboxes[p.rank].DrainInto(tag, scratch)
}

// Absorb applies arrival-wait and receive-overhead accounting for a
// packet obtained from DrainBatch, exactly as Recv does: the clock waits
// forward to the packet's arrival.
func (p *Proc) Absorb(pkt *Packet) { p.absorb(pkt) }

// Yield cedes the rank's execution slot to another runnable rank. On a
// simulated wire, where every world runs under the M:N scheduler, it
// donates the calling rank's worker token to the rank at the head of
// the run queue, re-queueing the caller at its tail, whenever one is
// waiting; otherwise — a real-time wire, or nobody waiting — it yields
// the OS thread. Every loop that polls without blocking (a lazy
// mailbox's TestEmpty, DrainBatch) must call this on its idle path, not
// runtime.Gosched: a token-holding spinner starves the very ranks whose
// messages it polls for, and with as many spinners as tokens the world
// stops. The mailboxes' own waits park in WaitAny.
//
// Yield also marks the rank idle for the deadlock watchdog, which counts
// a rank that keeps yielding while no inbox makes progress as blocked.
// Call it only when the loop has nothing to do until a packet arrives,
// and call AbortIfPeerFailed beside it so a poisoned run unwinds the
// loop.
func (p *Proc) Yield() {
	p.world.inboxes[p.rank].yields.Add(1)
	if s := p.world.sched; s != nil && s.yield(p.rank) {
		return
	}
	runtime.Gosched()
}

// absorb applies arrival wait and receive overhead accounting for pkt.
// Real-time wires skip the virtual accounting entirely: the stamp was
// taken at or before the push on this host's monotonic clock, so the
// packet has always "arrived", wait was measured around the park, and
// the receive overhead is real work. The flight recorder's receive
// event carries that stamp, so an untraced receive reads no clock.
func (p *Proc) absorb(pkt *Packet) {
	if p.rt != nil {
		p.stats.RecvMsgs++
		p.rec.Record(obs.Event{Kind: obs.KRecv, T: pkt.Arrive, Peer: int32(pkt.Src), Tag: uint64(pkt.Tag), Size: int64(len(pkt.Payload))})
		if p.world.trace != nil {
			p.world.trace.PacketReceived(pkt.Src, p.rank, pkt.Tag, len(pkt.Payload), p.now())
		}
		return
	}
	// One fused clock update covers the whole receive: fast-forward to
	// the arrival (wait time) plus the receive overhead (busy time).
	// The returned jump is the idle interval skipped, 0 for packets
	// already arrived; a large one goes to the flight recorder.
	before := p.clock.Now()
	jump := p.clock.AbsorbAt(pkt.Arrive, p.world.model.RecvOverheadFor(p.world.topo.SameNode(p.rank, pkt.Src)))
	if jump > 50e-6 {
		p.rec.Record(obs.Event{Kind: obs.KJump, T: before, Peer: int32(pkt.Src), Tag: uint64(pkt.Tag), Size: int64(len(pkt.Payload))})
	}
	p.stats.RecvMsgs++
	p.rec.Record(obs.Event{Kind: obs.KRecv, T: p.clock.Now(), Peer: int32(pkt.Src), Tag: uint64(pkt.Tag), Size: int64(len(pkt.Payload))})
	p.checkClockMonotone()
	if p.world.trace != nil {
		p.world.trace.PacketReceived(pkt.Src, p.rank, pkt.Tag, len(pkt.Payload), p.clock.Now())
	}
}

// Clock exposes the rank's virtual netsim clock. Under a real-time wire
// the virtual clock never advances (the rank's time base is host time;
// see Now); callers that care about the time base should consult the
// Report's Wall field instead.
func (p *Proc) Clock() *netsim.Clock { return &p.clock }

// Metrics returns this rank's named-metric registry. Layers resolve
// their counters and gauges once at construction and update the
// returned pointers directly; the registry is confined to the rank's
// goroutine. Each rank's snapshot lands in RankReport.Metrics, and
// Report.Metrics merges them.
func (p *Proc) Metrics() *obs.Registry { return p.metrics }

// FlightRecorder returns this rank's event ring. Upper layers may
// Record their own events; deadlock and panic dumps include the ring's
// recent contents.
func (p *Proc) FlightRecorder() *obs.Recorder { return p.rec }

// Span is an open virtual-time interval on one rank, returned by
// Proc.Span and closed by End. It is a small value type so that span
// bracketing on instrumented paths allocates nothing.
type Span struct {
	p    *Proc
	name string
}

// Span begins a named phase span at the rank's current virtual time,
// forwarded to the Config.Trace value. Without one it returns an inert
// Span whose End is a no-op: span bracketing sits on polling-hot paths
// (e.g. the lazy drain loop), so the untraced cost must be a single nil
// check. Spans deliberately do
// NOT enter the flight recorder — per-poll span brackets would evict
// the send/receive history that makes deadlock and panic dumps useful.
func (p *Proc) Span(name string) Span {
	tr := p.world.trace
	if tr == nil {
		return Span{}
	}
	tr.SpanBegin(p.rank, name, p.now())
	return Span{p: p, name: name}
}

// End closes the span at the rank's current virtual time.
func (s Span) End() {
	if s.p == nil {
		return
	}
	s.p.world.trace.SpanEnd(s.p.rank, s.name, s.p.now())
}

// Mark records a labelled instant with an event-specific value (e.g. a
// termination generation number) in the flight recorder and, when the
// run is traced, in the trace.
func (p *Proc) Mark(name string, value uint64) {
	now := p.now()
	p.rec.Record(obs.Event{Kind: obs.KMark, T: now, Peer: -1, Tag: value, Name: name})
	if tr := p.world.trace; tr != nil {
		tr.Mark(p.rank, name, value, now)
	}
}
