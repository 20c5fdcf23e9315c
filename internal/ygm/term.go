package ygm

import (
	"ygm/internal/collective"
	"ygm/internal/transport"
)

// TagTerm is the transport tag reserved for termination detection.
const TagTerm transport.Tag = 2

// termDetector implements the counting-consensus termination detection
// of Section IV-B as a nonblocking state machine: step consumes what has
// arrived and returns, so one progress loop can serve detection and data
// traffic together (WaitEmpty), poll between units of external work
// (TestEmpty, the HavoqGT pattern) or interleave with exchange rounds.
//
// Each detection *generation* is one generation of collective.Allreduce
// over the world, summing the (HopsSent, HopsRecv) snapshots on TagTerm,
// so every rank ends holding the same totals and evaluates the same
// verdict — quiescence when the totals balance and equal the previous
// generation's, Mattern's four-counter condition, sound because every
// snapshot of one generation causally follows every snapshot of the one
// before. There is no root and nothing to broadcast.
//
// The previous totals and this rank's previous snapshot survive a
// verdict (they start at zero, the counters of a world that has not
// sent): when the first generation of a new cycle reads the last
// quiescent totals again, no rank has sent since a known-quiet instant,
// and an idle WaitEmpty costs one generation.
type termDetector struct {
	collective.Allreduce

	p     *transport.Proc
	stats *Stats
	hooks *TestHooks // mutation-test faults (nil in production): ForceVerdict

	mine  [2]uint64 // this rank's (sent, received) snapshot
	prev  [2]uint64 // totals of the generation before the one in flight
	still bool      // the snapshot equals this rank's previous one
}

func (td *termDetector) init(p *transport.Proc, stats *Stats, hooks *TestHooks) {
	td.p, td.stats, td.hooks = p, stats, hooks
	td.Init(p, TagTerm, nil, int(p.Rank()))
}

// hold reports whether the generation in flight may be the final one:
// the previous totals balanced and this rank's counters had not moved
// between its last two snapshots. Only then can a peer already hold a
// quiescence verdict and be sending next-phase data, so exactly then the
// mailbox must leave its data stream alone until the verdict is in; in
// every other state no rank can conclude and arrived data is of this
// phase.
func (td *termDetector) hold() bool {
	return td.Busy() && td.still && td.prev[0] == td.prev[1]
}

// step makes nonblocking progress: it snapshots this rank's counters and
// opens a generation if none is in flight, then advances it as far as
// the arrived packets allow. It returns true exactly when a generation
// completed with a global-quiescence verdict, which every rank reaches
// on the same totals. After a completed generation — either verdict —
// Busy is false and the next call snapshots afresh, so the caller can
// drain data in between; while busy, only a further TagTerm packet can
// move it.
func (td *termDetector) step() bool {
	if !td.Busy() {
		td.stats.Generations++
		td.p.Mark("term.gen", td.stats.Generations)
		snap := [2]uint64{td.stats.HopsSent, td.stats.HopsRecv}
		td.still = snap == td.mine
		td.mine = snap
		td.Start(snap[:], collective.SumU64)
	}
	if !td.Step() {
		return false
	}
	sum := [2]uint64(td.Result())
	balanced, unchanged := sum[0] == sum[1], sum == td.prev
	td.prev = sum
	done := balanced && unchanged
	if td.hooks != nil && td.hooks.ForceVerdict != nil {
		done = td.hooks.ForceVerdict(balanced, unchanged)
	}
	td.checkVerdictBalanced(done, sum)
	return done
}
