//go:build ygmcheck

package ygm

import (
	"fmt"

	"ygm/internal/transport"
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

// checkCapacityBound asserts the paper's mailbox-size contract after an
// application-level queueing operation. Policies with a capacity trigger
// call it outside any exchange (where flushes are deferred until the
// packet or round is fully handled): the coalescing buffers never hold a
// full mailbox — reaching Capacity triggers an exchange. It also checks
// the per-buffer record accounting.
func (c *core) checkCapacityBound() {
	checkf(c.queued < c.opts.Capacity,
		"rank %d coalescing buffers hold %d records, capacity %d: exchange-at-capacity violated",
		c.me, c.queued, c.opts.Capacity)
	total := 0
	for s := range c.stages {
		for _, gen := range [][]hopBuf{c.stages[s].cur, c.stages[s].next} {
			for i := range gen {
				total += gen[i].count
			}
		}
	}
	checkf(total == c.queued,
		"rank %d queued-record accounting out of balance: cached %d, actual %d",
		c.me, c.queued, total)
}

// checkQuiescent asserts the postcondition of a positive termination
// verdict: the rank holds no unflushed records. A violation means the
// flush-before-drain discipline broke — the round consensus declared
// quiescence while this rank still had buffered sends. (The inbox may
// legitimately hold *next-phase* packets from ranks that observed the
// verdict earlier and already resumed sending, so inbox emptiness is
// deliberately not asserted.)
func checkQuiescent(p *transport.Proc, pendingSends int, site string) {
	checkf(pendingSends == 0,
		"rank %d left %s with %d unflushed records", p.Rank(), site, pendingSends)
}

// checkVerdict asserts the round detector's invariant at the moment a
// rank declares global quiescence (every rank evaluates the verdict, so
// every rank checks): this rank holds no records and has run no round
// past the agreed count.
func (td *termDetector) checkVerdict(done bool) {
	checkf(!done || td.c.queued == 0 && td.Result()[0] == *td.round,
		"rank %d round verdict on %d rounds with %d queued records after %d rounds",
		td.c.me, td.Result()[0], td.c.queued, *td.round)
}

// checkVerdict asserts the lazy verdict's postcondition: every rank has
// joined, so no work of the epoch is left anywhere — this rank has a
// deficit of 0, no parent, no owed acknowledgement and no queued record.
// (The inbox may hold next-epoch packets from ranks that left the
// barrier earlier, so inbox emptiness is deliberately not asserted.)
func (mb *Mailbox) checkVerdict(site string) {
	checkf(mb.deficit == 0 && mb.parent == nil && len(mb.owing) == 0 && mb.queued == 0,
		"rank %d left %s with a deficit of %d, parent %v, %d hops owed acknowledgements and %d queued records",
		mb.me, site, mb.deficit, mb.parent != nil, len(mb.owing), mb.queued)
}
