package transport

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ygm/internal/machine"
	"ygm/internal/obs"
)

// defaultWatchdogInterval is the polling cadence of the deadlock
// watchdog. Detection needs two consecutive quiet observations, so the
// worst-case latency from deadlock to dump is about three intervals.
const defaultWatchdogInterval = 250 * time.Millisecond

// RankDeadState is one rank's snapshot at deadlock-detection time,
// self-reported by the rank as it unwinds from its poisoned receive.
type RankDeadState struct {
	Rank       machine.Rank
	Clock      float64 // virtual time at which the rank blocked
	InboxDepth int     // packets physically queued (other tags included)
	BlockedTag Tag     // the tag the rank was blocked receiving
	// Recent holds the rank's flight-recorder contents (oldest first) —
	// what the rank was doing before it blocked, not just its final
	// state. Empty when the recorder was disabled.
	Recent []obs.Event
}

// DeadlockError reports that the deadlock watchdog found every active
// rank blocked in a receive with no traffic in flight — the state a
// flush-before-drain violation or a mismatched collective produces. It
// carries the per-rank state dump the watchdog collected instead of
// letting the run hang.
type DeadlockError struct {
	// Blocked holds the state of every rank that was parked in a blocking
	// receive when the watchdog fired.
	Blocked []RankDeadState
	// Finished lists ranks whose SPMD body had already returned.
	Finished []machine.Rank
}

// dumpRankCap bounds the per-rank detail in a DeadlockError dump. A
// 65k-rank world dumping every rank is megabytes of noise; past the
// cap, Error shows the ranks with the deepest inboxes (the likely
// congestion points) and aggregates the rest into a blocked-tag
// histogram. The Blocked slice itself always carries every rank for
// programmatic consumers.
const dumpRankCap = 64

// dumpEventRanks bounds how many of the shown ranks include their
// flight-recorder tail in a summarized dump.
const dumpEventRanks = 4

// Error formats the per-rank state dump. Worlds of at most dumpRankCap
// blocked ranks keep the full dump; larger worlds are summarized.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transport: deadlock detected: %d rank(s) blocked, %d finished",
		len(e.Blocked), len(e.Finished))
	if len(e.Blocked) > dumpRankCap {
		e.formatSummary(&b)
	} else {
		for _, s := range e.Blocked {
			fmt.Fprintf(&b, "\n  rank %d: blocked on tag %#x, clock %.6fs, inbox depth %d",
				s.Rank, uint64(s.BlockedTag), s.Clock, s.InboxDepth)
			if len(s.Recent) > 0 {
				fmt.Fprintf(&b, "\n    last %d events:\n%s", len(s.Recent),
					strings.TrimRight(obs.FormatEvents(s.Recent, "      "), "\n"))
			}
		}
	}
	switch {
	case len(e.Finished) > dumpRankCap:
		fmt.Fprintf(&b, "\n  finished: %d rank(s)", len(e.Finished))
	case len(e.Finished) > 0:
		parts := make([]string, len(e.Finished))
		for i, r := range e.Finished {
			parts[i] = fmt.Sprintf("%d", r)
		}
		fmt.Fprintf(&b, "\n  finished: rank(s) %s", strings.Join(parts, ", "))
	}
	return b.String()
}

// formatSummary renders the large-world dump: the dumpRankCap
// deepest-inbox ranks (ties broken by rank), then an aggregate
// histogram of what the remaining ranks were blocked on.
func (e *DeadlockError) formatSummary(b *strings.Builder) {
	deepest := make([]RankDeadState, len(e.Blocked))
	copy(deepest, e.Blocked)
	sort.Slice(deepest, func(i, j int) bool {
		if deepest[i].InboxDepth != deepest[j].InboxDepth {
			return deepest[i].InboxDepth > deepest[j].InboxDepth
		}
		return deepest[i].Rank < deepest[j].Rank
	})
	fmt.Fprintf(b, "\n  showing the %d deepest-inbox ranks (%d more aggregated below):",
		dumpRankCap, len(e.Blocked)-dumpRankCap)
	for i, s := range deepest[:dumpRankCap] {
		fmt.Fprintf(b, "\n  rank %d: blocked on tag %#x, clock %.6fs, inbox depth %d",
			s.Rank, uint64(s.BlockedTag), s.Clock, s.InboxDepth)
		if i < dumpEventRanks && len(s.Recent) > 0 {
			fmt.Fprintf(b, "\n    last %d events:\n%s", len(s.Recent),
				strings.TrimRight(obs.FormatEvents(s.Recent, "      "), "\n"))
		}
	}
	// Aggregate over ALL blocked ranks: which tags the world is stuck
	// on, and how much traffic is queued behind the deadlock.
	tags := make(map[Tag]int)
	totalDepth := 0
	for _, s := range e.Blocked {
		tags[s.BlockedTag]++
		totalDepth += s.InboxDepth
	}
	type tagCount struct {
		tag Tag
		n   int
	}
	hist := make([]tagCount, 0, len(tags))
	for t, n := range tags {
		hist = append(hist, tagCount{t, n})
	}
	sort.Slice(hist, func(i, j int) bool {
		if hist[i].n != hist[j].n {
			return hist[i].n > hist[j].n
		}
		return hist[i].tag < hist[j].tag
	})
	fmt.Fprintf(b, "\n  blocked-tag histogram (%d distinct tag(s)):", len(hist))
	const tagCap = 16
	for i, tc := range hist {
		if i == tagCap {
			fmt.Fprintf(b, "\n    ... %d more tag(s)", len(hist)-tagCap)
			break
		}
		fmt.Fprintf(b, "\n    tag %#x: %d rank(s)", uint64(tc.tag), tc.n)
	}
	fmt.Fprintf(b, "\n  total queued packets across blocked ranks: %d", totalDepth)
}

// rankDeadlocked is the panic value a rank raises after recording its
// RankDeadState; Run's recover treats it as an orderly unwind.
type rankDeadlocked struct{}

// AbortIfPeerFailed unwinds the calling rank if another rank has already
// failed (panic or error return) or the run was poisoned. Nonblocking
// progress loops — which never park in a receive, so no poison wakes
// them when a peer dies or the watchdog declares a deadlock — must call
// this on their idle path, beside Yield, or a failed run livelocks them
// forever. The unwind
// follows the orderly deadlock path, so Run reports the original failure
// rather than this secondary exit.
func (p *Proc) AbortIfPeerFailed() {
	if p.world.failed.Load() || p.world.poisoned.Load() {
		p.deadlockExit(0)
	}
}

// deadlockExit records this rank's state for the aggregated dump and
// unwinds the rank. Called from Recv when its inbox has been poisoned.
func (p *Proc) deadlockExit(tag Tag) {
	w := p.world
	w.dead[p.rank] = &RankDeadState{
		Rank:       p.rank,
		Clock:      p.now(),
		InboxDepth: w.inboxes[p.rank].Len(),
		BlockedTag: tag,
		Recent:     p.rec.Snapshot(),
	}
	panic(rankDeadlocked{})
}

// watchdog polls all inboxes until the run ends or a deadlock is found:
// every rank still running its body is parked in a blocking receive or
// idling in a Yield loop, and no packet was pushed or popped between two
// consecutive observations. Under that condition no rank can ever wake
// another (wakeups require pushes, a parked rank pushes nothing, and an
// idle loop acts only on arrivals), so the watchdog poisons the inboxes;
// each parked rank then unwinds through deadlockExit, each idle one
// through AbortIfPeerFailed, and Run assembles the DeadlockError.
//
// The watchdog runs on host time by design — it supervises the
// simulation from outside, so the virtual-clock rule does not apply.
func (w *World) watchdog(interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var lastProgress uint64
	strikes := 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		active := w.active.Load()
		if active <= 0 {
			return
		}
		blocked := 0
		var progress uint64
		for _, ib := range w.inboxes {
			n, waiting, _ := ib.progress()
			progress += n
			if spun := ib.spun(); waiting || spun {
				blocked++
			}
		}
		if int64(blocked) == active && progress == lastProgress {
			strikes++
		} else {
			strikes = 0
		}
		lastProgress = progress
		if strikes >= 2 {
			w.poisoned.Store(true)
			for _, ib := range w.inboxes {
				ib.poison()
			}
			return
		}
	}
}

// deadlockError assembles the aggregated dump after all rank goroutines
// have unwound from a poisoned run.
func (w *World) deadlockError() *DeadlockError {
	derr := &DeadlockError{}
	for i, ds := range w.dead {
		if ds != nil {
			derr.Blocked = append(derr.Blocked, *ds)
		} else {
			derr.Finished = append(derr.Finished, machine.Rank(i))
		}
	}
	sort.Slice(derr.Blocked, func(i, j int) bool { return derr.Blocked[i].Rank < derr.Blocked[j].Rank })
	return derr
}
