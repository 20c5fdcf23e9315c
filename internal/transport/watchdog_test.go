package transport

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ygm/internal/machine"
)

// guard runs f and fails the test if it has not returned within the
// deadline — a watchdog for the watchdog, so a detection bug yields a
// clean failure rather than a test-binary timeout.
func guard(t *testing.T, deadline time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(deadline):
		t.Fatal("deadlocked run was not aborted by the watchdog")
		return nil
	}
}

// TestWatchdogDetectsBlockedRecv deadlocks one rank on a receive nobody
// will ever satisfy and expects a DeadlockError with a per-rank dump
// instead of a hang.
func TestWatchdogDetectsBlockedRecv(t *testing.T) {
	cfg := Config{
		Topo:             machine.New(1, 2),
		WatchdogInterval: 10 * time.Millisecond,
	}
	err := guard(t, 30*time.Second, func() error {
		_, err := Run(cfg, func(p *Proc) error {
			if p.Rank() == 0 {
				p.Compute(1e-6)
				p.Recv(TagUser) // no rank ever sends TagUser
			}
			return nil
		})
		return err
	})
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(derr.Blocked) != 1 || derr.Blocked[0].Rank != 0 {
		t.Fatalf("want rank 0 blocked, got %+v", derr.Blocked)
	}
	if derr.Blocked[0].BlockedTag != TagUser {
		t.Errorf("blocked tag = %#x, want TagUser", uint64(derr.Blocked[0].BlockedTag))
	}
	if derr.Blocked[0].Clock <= 0 {
		t.Errorf("blocked rank's virtual clock = %g, want > 0", derr.Blocked[0].Clock)
	}
	if len(derr.Finished) != 1 || derr.Finished[0] != 1 {
		t.Fatalf("want rank 1 finished, got %+v", derr.Finished)
	}
	for _, want := range []string{"deadlock detected", "rank 0", "blocked on tag", "clock", "inbox depth", "finished"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dump missing %q:\n%s", want, err.Error())
		}
	}
}

// TestWatchdogDetectsMutualWait deadlocks all ranks on crossed receives
// (each waits for a message the other never sends).
func TestWatchdogDetectsMutualWait(t *testing.T) {
	cfg := Config{
		Topo:             machine.New(2, 2),
		WatchdogInterval: 10 * time.Millisecond,
	}
	err := guard(t, 30*time.Second, func() error {
		_, err := Run(cfg, func(p *Proc) error {
			p.Recv(TagUser + Tag(p.Rank()))
			return nil
		})
		return err
	})
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(derr.Blocked) != 4 || len(derr.Finished) != 0 {
		t.Fatalf("want all 4 ranks blocked, got %d blocked / %d finished", len(derr.Blocked), len(derr.Finished))
	}
}

// TestWatchdogDetectsIdleYieldLoop: a rank in a nonblocking idle loop
// never parks, yet waits as surely as a parked one. With its only peer
// parked on a receive nobody satisfies, the world is stuck; the loop's
// Yields count it as blocked and its AbortIfPeerFailed unwinds it.
func TestWatchdogDetectsIdleYieldLoop(t *testing.T) {
	cfg := Config{
		Topo:             machine.New(1, 2),
		WatchdogInterval: 10 * time.Millisecond,
	}
	err := guard(t, 30*time.Second, func() error {
		_, err := Run(cfg, func(p *Proc) error {
			if p.Rank() == 1 {
				p.Recv(TagUser)
			}
			for !p.Pending(TagUser) {
				p.AbortIfPeerFailed()
				p.Yield()
			}
			return nil
		})
		return err
	})
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(derr.Blocked) != 2 {
		t.Fatalf("want both ranks blocked, got %+v", derr.Blocked)
	}
}

// TestWatchdogQuietOnBusyPeerOfIdleLoop: an idle loop waiting on a peer
// that is busy without touching any inbox is not a deadlock — the busy
// rank neither parks nor yields.
func TestWatchdogQuietOnBusyPeerOfIdleLoop(t *testing.T) {
	cfg := Config{
		Topo:             machine.New(1, 2),
		WatchdogInterval: time.Millisecond,
	}
	_, err := Run(cfg, func(p *Proc) error {
		if p.Rank() == 1 {
			time.Sleep(50 * time.Millisecond) // fifty watchdog ticks of work
			p.Send(0, TagUser, nil)
			return nil
		}
		for !p.Pending(TagUser) {
			p.AbortIfPeerFailed()
			p.Yield()
		}
		p.Recycle(p.Recv(TagUser))
		return nil
	})
	if err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
}

// TestWatchdogQuietOnHealthyRun checks that ordinary traffic, including
// blocking receives that are eventually satisfied, never trips the
// watchdog even at an aggressive polling interval.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := Config{
		Topo:             machine.New(2, 2),
		WatchdogInterval: time.Millisecond,
	}
	_, err := Run(cfg, func(p *Proc) error {
		next := machine.Rank((int(p.Rank()) + 1) % p.WorldSize())
		for i := 0; i < 50; i++ {
			p.Send(next, TagUser, []byte{byte(i)})
			p.Recycle(p.Recv(TagUser))
			// Stretch host time so watchdog ticks land mid-run.
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
}

// TestWatchdogPrefersRootCausePanic: when one rank dies of a real panic
// and strands its peers, the watchdog unblocks the peers but Run must
// surface the original panic, not the derived deadlock.
func TestWatchdogPrefersRootCausePanic(t *testing.T) {
	cfg := Config{
		Topo:             machine.New(1, 2),
		WatchdogInterval: 10 * time.Millisecond,
	}
	err := guard(t, 30*time.Second, func() error {
		_, err := Run(cfg, func(p *Proc) error {
			if p.Rank() == 1 {
				panic("application bug")
			}
			p.Recv(TagUser) // stranded by rank 1's death
			return nil
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "application bug") {
		t.Fatalf("want root-cause panic surfaced, got %v", err)
	}
}
