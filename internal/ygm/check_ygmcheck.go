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
// flush-before-drain discipline broke — the counting consensus declared
// quiescence while this rank still had buffered sends. (The inbox may
// legitimately hold *next-phase* packets from ranks that observed the
// verdict earlier and already resumed sending, so inbox emptiness is
// deliberately not asserted.)
func checkQuiescent(p *transport.Proc, pendingSends int, site string) {
	checkf(pendingSends == 0,
		"rank %d left %s with %d unflushed records", p.Rank(), site, pendingSends)
}

// checkVerdictBalanced asserts the counting-consensus invariant at the
// moment a rank declares global quiescence (every rank evaluates the
// verdict, so every rank checks): every record hop sent has been
// received.
func (td *termDetector) checkVerdictBalanced(done bool, sum [2]uint64) {
	if done {
		checkf(sum[0] == sum[1],
			"termination verdict with unbalanced counters: sent %d, received %d", sum[0], sum[1])
	}
}
