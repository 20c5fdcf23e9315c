//go:build ygmcheck

package transport

import (
	"testing"

	"ygm/internal/machine"
)

// Fixtures for the ygmcheck scheduler audits (`go test -tags
// ygmcheck`). The scheduler's correctness rests on three structural
// invariants — no rank queued twice, worker tokens conserved, no ready
// rank stranded while tokens sit free — and on the park protocol's
// promise that a ready() finds its rank waiting. These fixtures seed a
// violation of each and require the audit layer to panic, proving the
// assertions can actually fire.

// TestCheckSchedCleanRunPasses drives a real scheduled world under the
// full audit layer: the positive control showing the invariants hold on
// legitimate traffic, so the negative fixtures below are measuring the
// checks and not workload noise.
func TestCheckSchedCleanRunPasses(t *testing.T) {
	rep, err := run(NewConfig(machine.New(4, 2)), func(p *Proc) error {
		treeBarrier(p, TagUser)
		return nil
	}, 2)
	if err != nil {
		t.Fatalf("audited scheduled run failed: %v", err)
	}
	if rep.Metrics().Counter("sched.dispatches") == 0 {
		t.Fatal("scheduler never dispatched — audit exercised nothing")
	}
}

// TestCheckSchedDoubleEnqueuePanics seeds the bug the enqueue audit
// exists for: placing a rank on the run queue while it is already
// queued (which would eventually double-grant its gate).
func TestCheckSchedDoubleEnqueuePanics(t *testing.T) {
	s := newScheduler(8, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enqueueLocked(3)
	mustCheckPanic(t, "rank 3 enqueued while already queued", func() {
		s.enqueueLocked(3)
	})
}

// TestCheckSchedExitedEnqueuePanics: a rank whose body returned must
// never reappear on the run queue.
func TestCheckSchedExitedEnqueuePanics(t *testing.T) {
	s := newScheduler(8, 1)
	s.state[4] = rsExited
	s.mu.Lock()
	defer s.mu.Unlock()
	mustCheckPanic(t, "exited rank 4 enqueued", func() {
		s.enqueueLocked(4)
	})
}

// TestCheckSchedTokenConservationPanics corrupts the free-token count
// so avail+busy no longer equals the worker total — the state a
// double-release or minted grant would leave behind.
func TestCheckSchedTokenConservationPanics(t *testing.T) {
	s := newScheduler(8, 2)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.avail = 5
	mustCheckPanic(t, "token conservation violated", func() {
		s.checkSchedTokens()
	})
}

// TestCheckSchedNegativeTokenPanics: token counts must never go
// negative (an avail-- without the matching guard).
func TestCheckSchedNegativeTokenPanics(t *testing.T) {
	s := newScheduler(8, 2)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.avail = -1
	s.busy = 3
	mustCheckPanic(t, "negative token count", func() {
		s.checkSchedTokens()
	})
}

// TestCheckSchedStrandedRankPanics seeds the lost-dispatch state: a
// rank sitting on the run queue while worker tokens sit free. A correct
// scheduler never leaves this window observable (every enqueue path
// either consumed the last token or hands off), so the audit treats it
// as a hard failure rather than latency.
func TestCheckSchedStrandedRankPanics(t *testing.T) {
	s := newScheduler(8, 2) // both tokens free
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enqueueLocked(3)
	mustCheckPanic(t, "stranded on the run queue", func() {
		s.checkSchedTokens()
	})
}

// TestCheckSchedReadyNotWaitingPanics seeds a wake for a rank that still
// holds its token. A rank releases its token before it publishes a
// park, so outside a poisoned world this is a protocol breach; the
// forced wake of a poisoned world may find the rank running, and the
// audit lets that one through.
func TestCheckSchedReadyNotWaitingPanics(t *testing.T) {
	s := newScheduler(8, 2)
	s.acquire(5) // rank 5 now runs on a token
	ib := NewInbox(8)
	ib.sched, ib.self, ib.wake = s, 5, s.gates[5]
	mustCheckPanic(t, "ready for rank 5, which is not waiting", ib.wakeOwner)
	ib.poisoned.Store(true)
	ib.wakeOwner()
}
