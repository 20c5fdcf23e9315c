package ygm

import (
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// SyncMailbox is the bulk-synchronous exchange policy of Section III-A,
// the variant in which every routing phase is an ALLTOALLV over the
// phase's partners. On machines with heavily optimized ALLTOALL
// implementations — the paper names IBM BG/Q Sequoia — this traded
// asynchronicity for better bandwidth utilization. A round already is
// that exchange: one (possibly empty) message to and from every partner
// of every stage. So SyncMailbox is RoundMailbox without its capacity
// trigger: Send only queues, and nothing moves until every rank calls
// Exchange (a collective), making the programming model bulk-synchronous.
// WaitEmpty is the round policy's: rounds until nothing is queued or
// inbound anywhere, then one round-count verdict.
type SyncMailbox struct {
	RoundMailbox
}

// newSync builds a synchronous mailbox. It is collective: every rank
// must construct one with identical Options before any exchange.
func newSync(p *transport.Proc, handler Handler, opts Options) (*SyncMailbox, error) {
	mb := &SyncMailbox{}
	if err := mb.initRound(p, mb, handler, opts); err != nil {
		return nil, err
	}
	return mb, nil
}

// Send queues a point-to-point message. Self-sends deliver immediately;
// nothing else moves before the next Exchange.
func (mb *SyncMailbox) Send(dst machine.Rank, payload []byte) { mb.send(dst, payload) }

// Broadcast queues a broadcast of payload to every other rank along the
// scheme's fan-out; the origin does not deliver to itself.
func (mb *SyncMailbox) Broadcast(payload []byte) { mb.broadcast(payload) }

// Exchange runs one round: every stage of the scheme, each an exchange
// with all of the stage's partners. It is collective over the whole
// world — all ranks must call it together — and delivers every record
// queued before the call (records spawned by handlers during delivery
// ride a later stage of the round if one can carry them, the next
// Exchange otherwise). The coupling of each phase to its slowest
// participant is exactly what the asynchronous Mailbox avoids.
func (mb *SyncMailbox) Exchange() {
	mb.notInHandler("Exchange")
	sp := mb.p.Span("sync.exchange")
	defer sp.End()
	mb.executeRound()
}
