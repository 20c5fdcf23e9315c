package ygm

import (
	"math"

	"ygm/internal/collective"
	"ygm/internal/transport"
)

// TagTerm is the transport tag reserved for termination detection.
const TagTerm transport.Tag = 2

// termDetector implements the termination detection of Section IV-B as
// a nonblocking state machine: Step consumes what has arrived and
// returns, so one progress loop can serve detection and data traffic
// together (WaitEmpty), poll between units of external work (TestEmpty,
// the HavoqGT pattern) or interleave with exchange rounds.
//
// Each detection *generation* is one generation of collective.Allreduce
// over the world on TagTerm, so every rank ends holding the same result
// and evaluates the same verdict. There is no root and nothing to
// broadcast. The two policies use it differently.
//
// The lazy policy counts its work instead of sampling it (see Mailbox):
// a rank joins a zero-width generation, a nonblocking barrier, once
// everything it sent has been acknowledged, and the barrier's completion
// is the verdict. It opens that generation itself (start) and only steps
// it afterwards, so a quiescence cycle costs exactly one generation.
//
// The round policy reduces the number of rounds this rank has completed,
// snapshotted with nothing queued, and its verdict is that every rank
// reported the same count R (step). One generation suffices: a completed
// round has received and dispatched every partner's message of every
// stage, so nothing sent in rounds up to R is in flight, and no rank can
// open round R+1 afterwards — the first to do so would need queued
// records, and only a round can queue them.
type termDetector struct {
	collective.Allreduce

	c     *core
	round *uint64 // the round policy's completed-round count; nil: lazy
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

// start opens the next generation over vals, counting it.
func (td *termDetector) start(vals []uint64, op func(a, b uint64) uint64) {
	st := &td.c.stats
	st.Generations++
	td.c.p.Mark("term.gen", st.Generations)
	td.Start(vals, op)
}

// step is the round policy's nonblocking progress: it snapshots the
// completed-round count and opens a generation if none is in flight,
// then advances it as far as the arrived packets allow. It returns true
// exactly when a generation completed with a global-quiescence verdict,
// which every rank reaches on the same result. After a completed
// generation — either verdict — Busy is false and the next call
// snapshots afresh, so the caller can run rounds in between; while busy,
// only a further TagTerm packet can move it.
func (td *termDetector) step() bool {
	if !td.Busy() {
		td.start([]uint64{*td.round}, agree)
	}
	if !td.Step() {
		return false
	}
	done := td.c.opts.forceVerdict(td.Result()[0] != disagree)
	td.checkVerdict(done)
	return done
}
