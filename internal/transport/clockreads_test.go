//go:build ygmcheck

package transport_test

import (
	"fmt"
	"testing"
	"time"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// TestHostClockReads pins the real-time wires' host-clock budget with
// the readings a ygmcheck build counts: one per send, none for a receive
// or a wait that finds its packet there, two per actual park, and on
// TCP at most one per socket fill, which a burst shares among its
// frames.
func TestHostClockReads(t *testing.T) {
	const tag = transport.TagUser
	t.Run("local send and receive", func(t *testing.T) {
		_, err := transport.Run(transport.NewConfig(machine.New(1, 1),
			transport.WithWire(transport.LocalWire{})),
			func(p *transport.Proc) error {
				steps := []struct {
					name string
					want uint64
					op   func()
				}{
					{"send", 1, func() { p.SendPooled(0, tag, []byte{1}) }},
					{"WaitAny on a present packet", 0, func() { p.WaitAny(tag) }},
					{"Recv of a present packet", 0, func() { p.Recycle(p.Recv(tag)) }},
					{"three sends", 3, func() {
						for i := 0; i < 3; i++ {
							p.SendPooled(0, tag, []byte{byte(i)})
						}
					}},
					{"Poll", 0, func() { p.Recycle(p.Poll(tag)) }},
					{"DrainBatch and Absorb", 0, func() {
						for _, pkt := range p.DrainBatch(tag, nil) {
							p.Absorb(pkt)
							p.Recycle(pkt)
						}
					}},
				}
				for _, s := range steps {
					before := transport.HostClockReads()
					s.op()
					if got := transport.HostClockReads() - before; got != s.want {
						return fmt.Errorf("%s read the host clock %d times, want %d", s.name, got, s.want)
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	})

	// waitFor pushes one packet from another goroutine after delay while
	// a timed inbox waits for it, and returns the readings, spin hits and
	// parks the wait took.
	ib := transport.NewInbox(1)
	transport.TimeParks(ib)
	waitFor := func(t *testing.T, delay time.Duration) (reads, spins, parks uint64) {
		reads0 := transport.HostClockReads()
		spins0, parks0 := ib.SpinParkStats()
		pushed := make(chan struct{})
		go func() {
			defer close(pushed)
			if delay > 0 {
				time.Sleep(delay)
			}
			ib.Push(&transport.Packet{Src: 0, Tag: tag})
		}()
		ib.WaitAny(tag)
		<-pushed
		if ib.TryPop(tag) == nil {
			t.Fatal("WaitAny returned with no packet")
		}
		spins1, parks1 := ib.SpinParkStats()
		return transport.HostClockReads() - reads0, spins1 - spins0, parks1 - parks0
	}

	t.Run("spin-satisfied wait", func(t *testing.T) {
		// The producer goroutine usually runs during the spin phase's
		// yields; whichever way one wait ends, it must cost two readings
		// per park and nothing else.
		for i := 0; i < 1000; i++ {
			reads, spins, parks := waitFor(t, 0)
			if reads != 2*parks {
				t.Fatalf("wait %d: %d readings for %d parks, want two per park", i, reads, parks)
			}
			if spins == 1 {
				return
			}
		}
		t.Fatal("no wait in 1000 was satisfied while spinning")
	})

	t.Run("park", func(t *testing.T) {
		reads, _, parks := waitFor(t, 50*time.Millisecond)
		if parks != 1 || reads != 2 {
			t.Fatalf("a wait 50 ms long took %d parks and %d readings, want 1 and 2", parks, reads)
		}
	})

	t.Run("tcp burst", func(t *testing.T) {
		// Rank 1 stalls its reader (StallPool) while rank 0 sends a
		// burst, so the burst waits in the socket and the reader then
		// takes it in a few buffer fills. Rank 1 collects it with Poll,
		// which reads no clock, and rank 0 blocks once it has sent, so
		// the readings in between are the sends' and the fills'.
		const frames = 1024
		stalled, sent, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var reads uint64
		_, errs := runTCPWorld(t, 2, func(p *transport.Proc) error {
			if p.Rank() == 0 {
				<-stalled
				for i := 0; i < frames; i++ {
					p.SendPooled(1, tag, make([]byte, 32))
				}
				close(sent)
				<-done
				return nil
			}
			defer close(done)
			release := transport.StallPool(p)
			before := transport.HostClockReads()
			close(stalled)
			<-sent
			time.Sleep(50 * time.Millisecond) // let the writer hand the burst to the kernel
			release()
			for got := 0; got < frames; {
				if pkt := p.Poll(tag); pkt != nil {
					p.Recycle(pkt)
					got++
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
			reads = transport.HostClockReads() - before
			return nil
		})
		failOnRankErrors(t, errs)
		// One reading per send; the rest are fills. A 64 KiB fill holds
		// about 1,400 of these 45-byte frames, and the bound allows for
		// the writer's batches arriving one by one.
		fills := reads - frames
		if reads < frames || fills < 1 || fills > frames/8 {
			t.Fatalf("%d frames took %d readings: want one per send and 1 to %d for the fills", frames, reads, frames/8)
		}
		t.Logf("%d frames: %d readings for the sends, %d for the fills", frames, frames, fills)
	})
}
