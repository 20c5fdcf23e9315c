package transport

import (
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/obs"
)

// TestTraceJumpsRecordedInFlightRecorder: a large arrival wait leaves a
// KJump event in the rank's flight recorder, so deadlock and panic dumps
// show which packet the rank idled for.
func TestTraceJumpsRecordedInFlightRecorder(t *testing.T) {
	// 1 MiB across the wire: ~15us rendezvous + ~95us at 11 GB/s, far
	// past the 50us jump threshold for a receiver still at virtual zero.
	payload := make([]byte, 1<<20)
	sawJump := false
	_, err := Run(Config{
		Topo:  machine.New(2, 1), // two nodes: the transfer is remote
		Model: netsim.Quartz(),
		Seed:  5,
	}, func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendPooled(1, TagUser, payload)
			return nil
		}
		pkt := p.Recv(TagUser)
		p.Recycle(pkt)
		for _, ev := range p.FlightRecorder().Snapshot() {
			if ev.Kind == obs.KJump {
				sawJump = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawJump {
		t.Fatal("no jump event in flight recorder after a >50us arrival wait")
	}
}

// TestPollRecordedInFlightRecorder: a packet taken by Poll — the lazy
// mailbox's opportunistic receive — leaves a KRecv event in the flight
// recorder, as one taken by Recv does.
func TestPollRecordedInFlightRecorder(t *testing.T) {
	recvs := 0
	_, err := Run(Config{
		Topo:  machine.New(2, 1),
		Model: netsim.Quartz(),
		Seed:  5,
	}, func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendPooled(1, TagUser, []byte{1})
			return nil
		}
		// Compute well past the packet's arrival, so Poll finds it
		// already arrived once it is physically queued.
		p.Compute(1e-3)
		pkt := p.Poll(TagUser)
		for pkt == nil {
			p.Yield()
			pkt = p.Poll(TagUser)
		}
		p.Recycle(pkt)
		for _, ev := range p.FlightRecorder().Snapshot() {
			if ev.Kind == obs.KRecv {
				recvs++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvs != 1 {
		t.Fatalf("KRecv events = %d, want 1", recvs)
	}
}
