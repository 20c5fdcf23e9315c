//go:build ygmcheck

package transport

import (
	"strings"
	"testing"
)

// Fixtures for the ygmcheck channel audit (`go test -tags ygmcheck`).
// Default-build tests prove packets come out correctly; these prove the
// assertion layer itself — that a legitimate bursty workload passes the
// per-channel sequence audit with the opt-in monotone-clock check
// armed, and that the audit actually fires on a seeded sequence gap, a
// seeded clock regression and a seeded double push. An assertion that
// cannot fail verifies nothing.

// mustCheckPanic runs fn and requires it to panic with a ygmcheck
// message containing substr.
func mustCheckPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected ygmcheck panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	fn()
}

// TestCheckRingOverflowFixture drives one channel through repeated
// 35-packet bursts with the monotone check armed: every absorb pass
// runs the gap-free sequence audit plus the arrival-clock check, and
// the fixture's strictly increasing arrivals must satisfy both.
func TestCheckRingOverflowFixture(t *testing.T) {
	const burst = 35
	ib := NewInbox(1)
	ib.check.monotone = true
	arrive := 0.0
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < burst; i++ {
			arrive++
			ib.Push(&Packet{Tag: TagUser, Arrive: arrive})
		}
		for i := 0; i < burst; i++ {
			if p := ib.TryPop(TagUser); p == nil {
				t.Fatalf("cycle %d: lost packet %d", cycle, i)
			}
		}
		if ib.TryPop(TagUser) != nil {
			t.Fatalf("cycle %d: duplicate packet", cycle)
		}
	}
	if c := ib.check.chans[0]; c == nil || c.pushed != 3*burst || c.next != 3*burst {
		t.Fatalf("audit state did not track the channel sequence: %+v", c)
	}
}

// TestCheckDetectsSequenceGap seeds a lost packet by advancing the
// producer-side channel sequence without publishing a packet for it.
// The next absorb pass must fail the gap-free audit — the check that
// turns a silently dropped packet into a loud panic.
func TestCheckDetectsSequenceGap(t *testing.T) {
	ib := NewInbox(1)
	ib.Push(&Packet{Tag: TagUser, Arrive: 1})
	ib.check.chans[0].pushed++ // the packet that should have carried seq 1 is never pushed
	ib.Push(&Packet{Tag: TagUser, Arrive: 2})
	mustCheckPanic(t, "sequence gap", func() { ib.TryPop(TagUser) })
}

// TestCheckDetectsArrivalRegression arms the monotone check and feeds a
// channel an arrival clock that runs backwards across two absorb
// passes. The audit must reject it; without the opt-in flag the same
// traffic must pass (variable-size traffic may legitimately reorder
// arrivals, which is why the clock check is fixture-only).
func TestCheckDetectsArrivalRegression(t *testing.T) {
	ib := NewInbox(1)
	ib.check.monotone = true
	ib.Push(&Packet{Tag: TagUser, Arrive: 5})
	if p := ib.TryPop(TagUser); p == nil || p.Arrive != 5 {
		t.Fatalf("first pop = %v", p)
	}
	ib.Push(&Packet{Tag: TagUser, Arrive: 1}) // later seq, earlier clock
	mustCheckPanic(t, "arrival clock ran backwards", func() { ib.TryPop(TagUser) })

	relaxed := NewInbox(1)
	relaxed.Push(&Packet{Tag: TagUser, Arrive: 5})
	if p := relaxed.TryPop(TagUser); p == nil {
		t.Fatal("lost packet")
	}
	relaxed.Push(&Packet{Tag: TagUser, Arrive: 1})
	if p := relaxed.TryPop(TagUser); p == nil || p.Arrive != 1 {
		t.Fatalf("relaxed inbox rejected legitimate out-of-clock traffic: %v", p)
	}
}

// TestCheckDetectsLinkedPush pushes a packet that is still on the
// stack. Unchecked, the second push would make the packet its own
// successor's successor and absorb would walk a cycle; the audit must
// refuse it at the push.
func TestCheckDetectsLinkedPush(t *testing.T) {
	ib := NewInbox(1)
	first := &Packet{Tag: TagUser, Arrive: 1}
	second := &Packet{Tag: TagUser, Arrive: 2}
	ib.Push(first)
	ib.Push(second) // second.next == first
	mustCheckPanic(t, "still linked", func() { ib.Push(second) })
}
