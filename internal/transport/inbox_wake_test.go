package transport

import (
	"testing"
	"time"

	"ygm/internal/machine"
	"ygm/internal/netsim"
)

// TestPushNoWaiterElidesSignal is the regression test for the
// unconditional-broadcast bug: pushes with no parked receiver must not
// signal, and the wake accounting must say so.
func TestPushNoWaiterElidesSignal(t *testing.T) {
	ib := NewInbox(1)
	for i := 0; i < 5; i++ {
		ib.Push(&Packet{Tag: TagUser, Arrive: float64(i)})
	}
	pushes, wakeups, suppressed := ib.WakeStats()
	if pushes != 5 || wakeups != 0 || suppressed != 5 {
		t.Fatalf("pushes=%d wakeups=%d suppressed=%d, want 5/0/5", pushes, wakeups, suppressed)
	}
	for i := 0; i < 5; i++ {
		if ib.TryPop(TagUser) == nil {
			t.Fatal("packet lost despite elided signal")
		}
	}
}

// blockingWaits are the two ways a rank parks on its inbox: WaitAny on
// one tag followed by a pop (Proc.Recv's shape), and WaitAny on two
// streams, woken here through the second.
// Each reports whether the wait was satisfied (false = poisoned).
var blockingWaits = []struct {
	name string
	wait func(ib *Inbox) bool
}{
	{"WaitPop", func(ib *Inbox) bool { return ib.WaitAny(TagUser) && ib.TryPop(TagUser) != nil }},
	{"WaitAny", func(ib *Inbox) bool {
		return ib.WaitAny(TagData, TagUser) && ib.TryPop(TagData) == nil && ib.TryPop(TagUser) != nil
	}},
}

// parkReceiver starts wait on its own goroutine and returns once it has
// published its parked state.
func parkReceiver(t *testing.T, ib *Inbox, wait func(*Inbox) bool) <-chan bool {
	t.Helper()
	got := make(chan bool, 1)
	go func() { got <- wait(ib) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, waiting, _ := ib.progress(); waiting {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatal("receiver never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPushWakesParkedReceiver covers the other half of the contract: a
// receiver parked in a blocking wait is signalled by the next push — the
// elision cannot turn into a missed wakeup — and the wake is counted. A
// push under a tag the receiver does not wait for wakes it too; it must
// park again rather than return.
func TestPushWakesParkedReceiver(t *testing.T) {
	for _, bw := range blockingWaits {
		t.Run(bw.name, func(t *testing.T) {
			ib := NewInbox(1)
			got := parkReceiver(t, ib, bw.wait)
			ib.Push(&Packet{Tag: TagUser + 1, Arrive: 1})
			select {
			case <-got:
				t.Fatal("wait returned on a packet of a foreign tag")
			case <-time.After(20 * time.Millisecond):
			}
			ib.Push(&Packet{Tag: TagUser, Arrive: 1})
			select {
			case ok := <-got:
				if !ok {
					t.Fatal("wait failed without poisoning")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked receiver never woke — missed wakeup")
			}
			if pushes, wakeups, suppressed := ib.WakeStats(); pushes != 2 || wakeups+suppressed != 2 || wakeups == 0 {
				t.Fatalf("pushes=%d wakeups=%d suppressed=%d, want 2 pushes, every one accounted, at least one wake", pushes, wakeups, suppressed)
			}
		})
	}
}

// TestPoisonUnblocksParkedReceiver: the watchdog's poison must fail a
// parked wait of either kind (so the rank unwinds into a deadlock
// report) and every wait after it.
func TestPoisonUnblocksParkedReceiver(t *testing.T) {
	for _, bw := range blockingWaits {
		t.Run(bw.name, func(t *testing.T) {
			ib := NewInbox(1)
			got := parkReceiver(t, ib, bw.wait)
			if _, _, tag := ib.progress(); bw.name == "WaitAny" && tag != TagData {
				t.Fatalf("WaitAny(TagData, TagUser) reports blocked on %#x, want its first tag", uint64(tag))
			}
			ib.poison()
			select {
			case ok := <-got:
				if ok {
					t.Fatal("poisoned wait reported a packet")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("poison did not wake the parked receiver")
			}
			if bw.wait(ib) {
				t.Fatal("wait on a poisoned, empty inbox succeeded")
			}
		})
	}
}

// TestInboxWakeMetricsShowElision verifies, through the run-level
// metrics, that signal elision actually engages under real traffic:
// packets pushed while the receiver is busy (not parked) land as
// suppressed signals, and the counters balance.
func TestInboxWakeMetricsShowElision(t *testing.T) {
	const msgs = 64
	report, err := Run(Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  11,
	}, func(p *Proc) error {
		if p.Rank() == 0 {
			// Burst all sends first: the receiver is not parked for most
			// pushes, so they must be counted as suppressed.
			for i := 0; i < msgs; i++ {
				p.Send(1, TagUser, []byte("m"))
			}
			return nil
		}
		// Give the sender real time to finish its burst before parking.
		time.Sleep(50 * time.Millisecond) //ygmvet:ignore wallclock -- host-side test sequencing, not simulated-rank logic
		for i := 0; i < msgs; i++ {
			pkt := p.Recv(TagUser)
			p.Recycle(pkt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := report.Metrics()
	pushes := m.Counter("inbox.pushes")
	wakeups := m.Counter("inbox.wakeups")
	suppressed := m.Counter("inbox.wakeups_suppressed")
	if pushes != msgs {
		t.Fatalf("inbox.pushes = %d, want %d", pushes, msgs)
	}
	if wakeups+suppressed != pushes {
		t.Fatalf("wakeups(%d) + suppressed(%d) != pushes(%d)", wakeups, suppressed, pushes)
	}
	if suppressed == 0 {
		t.Fatalf("no suppressed signals across a %d-message burst — elision never engaged", msgs)
	}
}
