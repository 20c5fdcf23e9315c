package ygm

import (
	"math"

	"ygm/internal/collective"
	"ygm/internal/transport"
)

// TagTerm is the transport tag reserved for termination detection.
const TagTerm transport.Tag = 2

// termDetector implements the termination detection of Section IV-B as
// a nonblocking state machine: step consumes what has arrived and
// returns, so one progress loop can serve detection and data traffic
// together (WaitEmpty), poll between units of external work (TestEmpty,
// the HavoqGT pattern) or interleave with exchange rounds.
//
// Each detection *generation* is one generation of collective.Allreduce
// over the world on TagTerm, so every rank ends holding the same result
// and evaluates the same verdict. There is no root and nothing to
// broadcast. The two policies reduce different snapshots.
//
// The lazy policy sums (HopsSent, HopsRecv): quiescence when the totals
// balance and equal the previous generation's, Mattern's four-counter
// condition, sound because every snapshot of one generation causally
// follows every snapshot of the one before. The previous totals and this
// rank's previous snapshot survive a verdict (they start at zero, the
// counters of a world that has not sent): when the first generation of a
// new cycle reads the last quiescent totals again, no rank has sent since
// a known-quiet instant, and an idle WaitEmpty costs one generation.
//
// The round policy reduces the number of rounds this rank has completed,
// snapshotted with nothing queued, and its verdict is that every rank
// reported the same count R. One generation suffices: a completed round
// has received and dispatched every partner's message of every stage, so
// nothing sent in rounds up to R is in flight, and no rank can open round
// R+1 afterwards — the first to do so would need queued records, and only
// a round can queue them.
type termDetector struct {
	collective.Allreduce

	c     *core
	round *uint64 // the round policy's completed-round count; nil: lazy

	mine  [2]uint64 // this rank's (sent, received) snapshot
	prev  [2]uint64 // totals of the generation before the one in flight
	still bool      // the snapshot equals this rank's previous one
}

// disagree is the round verdict's reduction of two different counts.
const disagree = math.MaxUint64

func agree(a, b uint64) uint64 {
	if a != b {
		return disagree
	}
	return a
}

func (td *termDetector) init(c *core, round *uint64) {
	td.c, td.round = c, round
	td.Init(c.p, TagTerm, nil, int(c.me))
}

// hold reports whether the lazy generation in flight may be the final
// one: the previous totals balanced and this rank's counters had not
// moved between its last two snapshots. Only then can a peer already hold
// a quiescence verdict and be sending next-phase data, so exactly then
// the mailbox must leave its data stream alone until the verdict is in;
// in every other state no rank can conclude and arrived data is of this
// phase.
func (td *termDetector) hold() bool {
	return td.Busy() && td.still && td.prev[0] == td.prev[1]
}

// step makes nonblocking progress: it snapshots this rank and opens a
// generation if none is in flight, then advances it as far as the
// arrived packets allow. It returns true exactly when a generation
// completed with a global-quiescence verdict, which every rank reaches on
// the same result. After a completed generation — either verdict — Busy
// is false and the next call snapshots afresh, so the caller can drain
// data in between; while busy, only a further TagTerm packet can move it.
func (td *termDetector) step() bool {
	st := &td.c.stats
	if !td.Busy() {
		st.Generations++
		td.c.p.Mark("term.gen", st.Generations)
		if td.round != nil {
			td.Start([]uint64{*td.round}, agree)
		} else {
			snap := [2]uint64{st.HopsSent, st.HopsRecv}
			td.still = snap == td.mine
			td.mine = snap
			td.Start(snap[:], collective.SumU64)
		}
	}
	if !td.Step() {
		return false
	}
	var balanced, unchanged bool
	if td.round != nil {
		balanced = td.Result()[0] != disagree
		unchanged = balanced
	} else {
		sum := [2]uint64(td.Result())
		balanced, unchanged = sum[0] == sum[1], sum == td.prev
		td.prev = sum
	}
	done := balanced && unchanged
	if h := td.c.opts.Hooks; h != nil && h.ForceVerdict != nil {
		done = h.ForceVerdict(balanced, unchanged)
	}
	td.checkVerdict(done)
	return done
}
