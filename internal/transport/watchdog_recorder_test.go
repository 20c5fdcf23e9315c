package transport

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/obs"
)

// TestDeadlockErrorCarriesFlightRecorder is the acceptance test for the
// flight recorder's reason to exist: when the watchdog aborts a run, the
// error must carry each blocked rank's recent event history — at least
// 32 events after real traffic — and render it in the dump, so a
// deadlock report shows what each rank was doing, not just where it
// stopped.
func TestDeadlockErrorCarriesFlightRecorder(t *testing.T) {
	const pingPongs = 20 // 20 sends + 20 receives per rank = 40 events, > 32
	cfg := Config{
		Topo:             machine.New(1, 2),
		Model:            netsim.Quartz(),
		WatchdogInterval: 10 * time.Millisecond,
	}
	err := guard(t, 30*time.Second, func() error {
		_, err := Run(cfg, func(p *Proc) error {
			peer := machine.Rank(1 - p.Rank())
			for i := 0; i < pingPongs; i++ {
				if p.Rank() == 0 {
					p.SendPooled(peer, TagUser, []byte("ping"))
					p.Recycle(p.Recv(TagUser))
				} else {
					p.Recycle(p.Recv(TagUser))
					p.SendPooled(peer, TagUser, []byte("pong"))
				}
			}
			p.Recv(TagUser + 100) // nobody sends this: both ranks block
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
	for _, s := range derr.Blocked {
		if len(s.Recent) < 32 {
			t.Fatalf("rank %d carries %d recent events, want >= 32", s.Rank, len(s.Recent))
		}
		var sends, recvs int
		for _, ev := range s.Recent {
			switch ev.Kind {
			case obs.KSend:
				sends++
			case obs.KRecv:
				recvs++
			}
		}
		if sends == 0 || recvs == 0 {
			t.Fatalf("rank %d history lacks traffic: %d sends, %d recvs", s.Rank, sends, recvs)
		}
	}
	dump := err.Error()
	if !strings.Contains(dump, "last ") || !strings.Contains(dump, " events:") {
		t.Fatalf("dump does not render the event history:\n%s", dump)
	}
	// Every blocked rank's history must actually be printed.
	if got := strings.Count(dump, " events:"); got != len(derr.Blocked) {
		t.Fatalf("dump renders %d event histories for %d blocked ranks:\n%s", got, len(derr.Blocked), dump)
	}
}
