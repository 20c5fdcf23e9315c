//go:build ygmcheck

package ygm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// Fixtures for the lazy mailbox's ygmcheck assertions (`go test -tags
// ygmcheck`): each plants one violation on rank 0 of a 2-rank world and
// requires the assertion it targets to panic with its message. An
// assertion that cannot fail verifies nothing.

// errCaught is what a rank returns once its plant was caught, so the run
// ends there and the plant's own leftovers are not judged further.
var errCaught = errors.New("plant caught")

// checkPanics runs fn on a fresh lazy mailbox of rank 0 and returns an
// error unless it panics with a ygmcheck message containing want.
func checkPanics(want string, fn func(p *transport.Proc, mb *Mailbox)) error {
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  1,
	}, func(p *transport.Proc) (err error) {
		mb := New(p, func(Sender, []byte) {}, WithExchange(LazyExchange), WithCapacity(16)).(*Mailbox)
		if p.Rank() != 0 {
			return nil
		}
		defer func() {
			msg, _ := recover().(string)
			err = errCaught
			if !strings.HasPrefix(msg, "ygmcheck: ") || !strings.Contains(msg, want) {
				err = fmt.Errorf("want a ygmcheck panic containing %q, got %q", want, msg)
			}
		}()
		fn(p, mb)
		return nil
	})
	if errors.Is(err, errCaught) {
		return nil
	}
	return err
}

// TestCheckDetectsNegativeDeficit forges an acknowledgement for a packet
// rank 0 never sent: taking it in would drive the deficit below 0.
func TestCheckDetectsNegativeDeficit(t *testing.T) {
	err := checkPanics("with a deficit of 0", func(p *transport.Proc, mb *Mailbox) {
		p.Send(0, TagAck, []byte{1, 0, 0, 0})
		mb.acknowledge()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckDetectsVerdictLeftovers plants, one at a time, each kind of
// epoch work a verdict must never leave behind and asserts the verdict
// check names it.
func TestCheckDetectsVerdictLeftovers(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		plant      func(mb *Mailbox)
	}{
		{"deficit", "deficit of 1,", func(mb *Mailbox) { mb.deficit = 1 }},
		{"parent", "parent true", func(mb *Mailbox) { mb.parent = &mb.stages[0].cur[0] }},
		{"owed", "1 hops owed", func(mb *Mailbox) { mb.owe(&mb.stages[0].cur[0]) }},
		{"queued", "1 queued records", func(mb *Mailbox) { mb.Send(1, []byte("x")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkPanics(tc.want, func(_ *transport.Proc, mb *Mailbox) {
				tc.plant(mb)
				mb.checkVerdict("the plant")
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
