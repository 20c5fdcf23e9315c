package ygm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ygm/internal/collective"
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// run2x2 runs body on every rank of a 2×2 world on wire and returns
// Run's error, failing the test if the run is still going after 5 s.
func run2x2(t *testing.T, wire transport.Wire, body func(p *transport.Proc)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := transport.Run(transport.Config{
			Topo:             machine.New(2, 2),
			Seed:             1,
			Wire:             wire,
			WatchdogInterval: 20 * time.Millisecond,
		}, func(p *transport.Proc) error {
			body(p)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("run still going after 5 s")
		return nil
	}
}

// TestBlockingCallInHandlerPanics: a receive callback runs inside
// delivery, so a blocking mailbox call made from one would wait on the
// other ranks while they wait on this rank's delivery loop. Every such
// call panics instead, naming itself, and transport.Run reports the
// panic as the delivering rank's error.
func TestBlockingCallInHandlerPanics(t *testing.T) {
	type call struct {
		name string
		do   func(Box)
	}
	waitEmpty := call{"WaitEmpty", func(mb Box) { mb.WaitEmpty() }}
	for _, tc := range []struct {
		style ExchangeStyle
		calls []call
	}{
		{LazyExchange, []call{waitEmpty, {"TestEmpty", func(mb Box) { mb.(*Mailbox).TestEmpty() }}}},
		{RoundExchange, []call{waitEmpty}},
		{SyncExchange, []call{waitEmpty, {"Exchange", func(mb Box) { mb.(*SyncMailbox).Exchange() }}}},
	} {
		for _, tw := range termWires {
			for _, c := range tc.calls {
				t.Run(fmt.Sprintf("%s/%v/%s", tw.name, tc.style, c.name), func(t *testing.T) {
					err := run2x2(t, tw.wire, func(p *transport.Proc) {
						var mb Box
						mb = New(p, func(Sender, []byte) { c.do(mb) },
							WithExchange(tc.style), WithScheme(machine.NLNR))
						if p.Rank() == 0 {
							mb.Send(3, []byte("x"))
						}
						mb.WaitEmpty()
					})
					want := fmt.Sprintf("ygm: rank 3: %s called from inside a handler", c.name)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("Run error = %v, want the panic %q", err, want)
					}
				})
			}
		}
	}
}

// TestStuckCollectiveIsDeadlockError: the two ways a collective goes
// unmatched — a rank that skips WaitEmpty, and a handler that enters a
// collective Barrier while its peers wait in the mailbox — end in the
// watchdog's DeadlockError on every policy and wire, never a hang. The
// round policy idles in a Yield loop instead of parking, which the
// watchdog counts as blocked.
func TestStuckCollectiveIsDeadlockError(t *testing.T) {
	bodies := []struct {
		name string
		run  func(p *transport.Proc, style ExchangeStyle)
	}{
		{"skip-WaitEmpty", func(p *transport.Proc, style ExchangeStyle) {
			mb := New(p, func(Sender, []byte) {}, WithExchange(style), WithScheme(machine.NLNR))
			if p.Rank() != 2 {
				mb.WaitEmpty()
			}
		}},
		{"Barrier-in-handler", func(p *transport.Proc, style ExchangeStyle) {
			comm := collective.World(p)
			mb := New(p, func(Sender, []byte) { comm.Barrier() }, WithExchange(style), WithScheme(machine.NLNR))
			if p.Rank() == 0 {
				mb.Send(3, []byte("x"))
			}
			mb.WaitEmpty()
		}},
	}
	for _, b := range bodies {
		for _, tw := range termWires {
			for _, style := range []ExchangeStyle{LazyExchange, RoundExchange, SyncExchange} {
				t.Run(fmt.Sprintf("%s/%s/%v", b.name, tw.name, style), func(t *testing.T) {
					err := run2x2(t, tw.wire, func(p *transport.Proc) { b.run(p, style) })
					var derr *transport.DeadlockError
					if !errors.As(err, &derr) {
						t.Fatalf("Run error = %v, want a DeadlockError", err)
					}
				})
			}
		}
	}
}
