//go:build ygmcheck

package transport

import (
	"fmt"
	"sync"

	"ygm/internal/machine"
)

// ygmcheckEnabled reports whether the runtime invariant layer is compiled
// in (`go test -tags ygmcheck ./...`). The no-op twin lives in
// check_noop.go.
const ygmcheckEnabled = true

// checkf panics with a descriptive ygmcheck message when cond is false.
func checkf(cond bool, format string, args ...any) {
	if !cond {
		panic("ygmcheck: " + fmt.Sprintf(format, args...))
	}
}

// verify asserts the inbox's consumer-side structural invariants for one
// tag: the per-tag heap is a valid min-heap on (Arrive, Src, seq) — so
// pops always yield the earliest virtual arrival among absorbed packets
// — and the cached depth equals the sum of all heap lengths. Only the
// owning rank calls it (the heaps are consumer-private).
func (ib *Inbox) verify(tag Tag) {
	if q, ok := ib.queues[tag]; ok {
		h := *q
		for i := 1; i < len(h); i++ {
			parent := (i - 1) / 2
			checkf(!h.less(i, parent),
				"inbox heap order violated for tag %d: index %d (arrive %g) sorts before its parent (arrive %g)",
				tag, i, h[i].Arrive, h[parent].Arrive)
		}
	}
	total := 0
	for _, q := range ib.queues {
		total += len(*q)
	}
	checkf(total == ib.depth,
		"inbox depth accounting out of balance: cached %d, actual %d", ib.depth, total)
}

// chanCheck is one src→dst channel's audit state. pushed is the next
// channel sequence Push hands out — the channel's producer owns it,
// pushes of one source being ordered; next and arrive are the
// consumer's view: the sequence absorb expects and the last arrival
// clock it saw.
type chanCheck struct {
	pushed uint64
	next   uint64
	arrive float64
}

// inboxCheck is the ygmcheck channel audit: Push numbers every packet
// on its channel on the producer side, and absorb asserts each channel
// continues gap-free — the per-channel FIFO the stack reversal exists
// to guarantee. mu guards the map only; a mutex is fine here, audit
// builds are not timed.
type inboxCheck struct {
	mu    sync.Mutex
	chans map[machine.Rank]*chanCheck
	// monotone additionally asserts that arrivals absorbed from one
	// channel never decrease. That only holds when senders emit
	// fixed-size packets or the non-overtaking clamp is active, so it is
	// opt-in for fixtures.
	monotone bool
}

// channel resolves (lazily creating) the audit state for src.
func (c *inboxCheck) channel(src machine.Rank) *chanCheck {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chans == nil {
		c.chans = make(map[machine.Rank]*chanCheck)
	}
	ch := c.chans[src]
	if ch == nil {
		ch = &chanCheck{}
		c.chans[src] = ch
	}
	return ch
}

// checkPush asserts p is not already on a stack — pushing a linked
// packet would splice that stack's tail into this one — and stamps p's
// channel sequence into p.seq for checkAbsorbed.
func (ib *Inbox) checkPush(p *Packet) {
	checkf(p.next == nil,
		"inbox push of a packet that is still linked (src %d, tag %d)", p.Src, p.Tag)
	ch := ib.check.channel(p.Src)
	p.seq = ch.pushed
	ch.pushed++
}

// checkAbsorbed audits one packet in absorb order: its channel sequence
// must continue the channel gap-free (no packet lost, duplicated, or
// absorbed ahead of an earlier one left behind), and with
// inboxCheck.monotone its arrival clock must not run backwards.
func (ib *Inbox) checkAbsorbed(p *Packet) {
	ch := ib.check.channel(p.Src)
	checkf(p.seq == ch.next,
		"inbox channel sequence gap: absorbed seq %d from rank %d where %d was expected",
		p.seq, p.Src, ch.next)
	ch.next++
	if ib.check.monotone {
		checkf(p.Arrive >= ch.arrive,
			"inbox channel arrival clock ran backwards: seq %d arrives at %g after %g",
			p.seq, p.Arrive, ch.arrive)
		ch.arrive = p.Arrive
	}
}

// checkClockMonotone asserts that the rank's virtual clock never ran
// backwards since the last observation.
func (p *Proc) checkClockMonotone() {
	now := p.clock.Now()
	checkf(now >= p.checkLastNow,
		"rank %d virtual clock ran backwards: %g after %g", p.rank, now, p.checkLastNow)
	p.checkLastNow = now
}

// poisonByte fills pooled payloads as Recycle takes them back. Its high
// bit is set, so a uvarint read from poisoned bytes overflows.
const poisonByte = 0xdb

// poisonPayload overwrites a pooled payload as it returns to the pool,
// so a read after Recycle sees garbage, which codec errors and the
// oracles catch, instead of stale bytes that still decode.
func poisonPayload(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// checkSchedEnqueue asserts a rank is never placed on the run queue
// while it is already on it (a double-enqueue would eventually
// double-grant its gate and deadlock the dispatcher), nor after it
// exited. Called under the scheduler mutex.
func (s *scheduler) checkSchedEnqueue(r machine.Rank) {
	checkf(s.state[r] != rsQueued, "scheduler: rank %d enqueued while already queued", r)
	checkf(s.state[r] != rsExited, "scheduler: exited rank %d enqueued", r)
}

// checkSchedDequeue asserts a dispatched rank was in the queued state —
// the pop side of the double-enqueue audit.
func (s *scheduler) checkSchedDequeue(r machine.Rank) {
	checkf(s.state[r] == rsQueued,
		"scheduler: dispatched rank %d in state %d, want queued", r, s.state[r])
}

// checkSchedTokens asserts worker-token conservation after a scheduler
// transition: tokens are never minted or lost, and no rank waits on the
// run queue while a token sits free. Called under the scheduler mutex.
func (s *scheduler) checkSchedTokens() {
	checkf(s.avail >= 0 && s.busy >= 0,
		"scheduler: negative token count (avail %d, busy %d)", s.avail, s.busy)
	checkf(s.avail+s.busy == s.workers,
		"scheduler: token conservation violated: %d avail + %d busy != %d workers",
		s.avail, s.busy, s.workers)
	checkf(!(s.queue.len() > 0 && s.avail > 0),
		"scheduler: %d rank(s) stranded on the run queue with %d free worker token(s)",
		s.queue.len(), s.avail)
}

// checkReadyFoundWaiting asserts that the scheduler's ready() found the
// rank it woke waiting. A rank gives up its token before it publishes a
// park, so only the forced wake of a poisoned world may find it
// running, queued or exited.
func (ib *Inbox) checkReadyFoundWaiting(waiting bool) {
	checkf(waiting || ib.poisoned.Load(),
		"scheduler: ready for rank %d, which is not waiting, outside a poisoned world", ib.self)
}
