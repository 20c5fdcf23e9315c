package transport

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
)

func testConfig(nodes, cores int) Config {
	return Config{Topo: machine.New(nodes, cores), Model: netsim.Quartz(), Seed: 42}
}

func TestRunEmptyBody(t *testing.T) {
	rep, err := Run(testConfig(2, 2), func(p *Proc) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != 4 || rep.Makespan() != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Utilization() != 1 {
		t.Fatalf("idle run utilization = %g", rep.Utilization())
	}
}

func TestRunRejectsEmptyTopology(t *testing.T) {
	if _, err := Run(Config{}, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("want error for empty topology")
	}
}

func TestRunDefaultsModel(t *testing.T) {
	cfg := Config{Topo: machine.New(1, 2)}
	_, err := Run(cfg, func(p *Proc) error {
		if p.Model().WireBandwidth != netsim.Quartz().WireBandwidth {
			return fmt.Errorf("model not defaulted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsInvalidModel(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Model.WireBandwidth = -1
	if _, err := Run(cfg, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("want model validation error")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	wantErr := fmt.Errorf("rank failure")
	_, err := Run(testConfig(1, 2), func(p *Proc) error {
		if p.Rank() == 1 {
			return wantErr
		}
		return nil
	})
	if err == nil {
		t.Fatal("error should propagate")
	}
}

func TestRunRecoversPanics(t *testing.T) {
	_, err := Run(testConfig(1, 2), func(p *Proc) error {
		if p.Rank() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic should surface as error")
	}
}

func TestPingPong(t *testing.T) {
	rep, err := Run(testConfig(2, 1), func(p *Proc) error {
		const payload = 1024
		if p.Rank() == 0 {
			p.SendPooled(1, TagUser, make([]byte, payload))
			pkt := p.Recv(TagUser)
			if pkt.Src != 1 || pkt.Size() != payload {
				return fmt.Errorf("bad reply %v", pkt)
			}
			p.Recycle(pkt)
		} else {
			pkt := p.Recv(TagUser)
			p.SendPooled(pkt.Src, TagUser, make([]byte, payload))
			p.Recycle(pkt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals()
	if tot.RemoteMsgs != 2 || tot.LocalMsgs != 0 {
		t.Fatalf("totals = %+v", tot)
	}
	m := netsim.Quartz()
	// Round trip >= two transfers plus overheads.
	minTime := 2 * m.RemoteTransferTime(1024)
	if rep.Makespan() < minTime {
		t.Fatalf("makespan %g < theoretical floor %g", rep.Makespan(), minTime)
	}
}

// TestVirtualTimeCausality: a blocking receive never completes before the
// packet's virtual arrival, so receiver time >= sender send time +
// transfer.
func TestVirtualTimeCausality(t *testing.T) {
	var sendDone, recvTime float64
	_, err := Run(testConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Compute(1e-3) // sender is busy first
			p.SendPooled(1, TagUser, make([]byte, 100))
			sendDone = p.Now()
		} else {
			p.Recycle(p.Recv(TagUser))
			recvTime = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvTime <= sendDone {
		t.Fatalf("receiver finished at %g before sender's %g plus transfer", recvTime, sendDone)
	}
}

// TestLocalVsRemoteAccounting: local sends are counted and costed as
// shared-memory transfers.
func TestLocalVsRemoteAccounting(t *testing.T) {
	rep, err := Run(testConfig(2, 2), func(p *Proc) error {
		topo := p.Topo()
		switch p.Rank() {
		case 0:
			p.SendPooled(topo.RankOf(0, 1), TagUser, make([]byte, 64)) // local
			p.SendPooled(topo.RankOf(1, 0), TagUser, make([]byte, 64)) // remote
		case 1, 2:
			p.Recycle(p.Recv(TagUser))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals()
	if tot.LocalMsgs != 1 || tot.RemoteMsgs != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.LocalBytes != 64 || tot.RemoteBytes != 64 {
		t.Fatalf("totals = %+v", tot)
	}
	// TagUser is control traffic, outside the mailbox payload counters.
	if tot.DataRemoteMsgs != 0 || tot.AvgDataRemoteMsgBytes() != 0 {
		t.Fatalf("user packets counted as data: %+v", tot)
	}
}

// TestPollRespectsVirtualArrival: a poll before the virtual arrival sees
// nothing; after advancing the clock past it, the packet appears.
func TestPollRespectsVirtualArrival(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendPooled(1, TagUser, make([]byte, 1<<20)) // ~0.1ms transfer
			p.SendPooled(1, TagData, nil)                 // physical-arrival signal
			return nil
		}
		// Wait until the big packet is physically present.
		p.Recycle(p.Recv(TagData))
		// Clock is near zero (data packet has tiny transfer); the 1 MiB
		// payload arrives later in virtual time.
		if pkt := p.Poll(TagUser); pkt != nil {
			return fmt.Errorf("poll returned a packet still in virtual flight (now=%g arrive=%g)", p.Now(), pkt.Arrive)
		}
		p.Compute(1) // fast-forward a full second
		pkt := p.Poll(TagUser)
		if pkt == nil {
			return fmt.Errorf("poll missed an arrived packet")
		}
		p.Recycle(pkt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDrainJumpsClock: DrainBatch takes packets still in virtual
// flight, and Absorb charges the wait to their arrival.
func TestDrainJumpsClock(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendPooled(1, TagUser, make([]byte, 1<<20))
			p.SendPooled(1, TagData, nil)
			return nil
		}
		p.Recycle(p.Recv(TagData))
		before := p.Now()
		batch := p.DrainBatch(TagUser, nil)
		if len(batch) != 1 {
			return fmt.Errorf("drain took %d packets, want 1", len(batch))
		}
		if p.Now() != before {
			return fmt.Errorf("DrainBatch moved the clock from %g to %g", before, p.Now())
		}
		pkt := batch[0]
		p.Absorb(pkt)
		if p.Now() < pkt.Arrive || p.Now() <= before {
			return fmt.Errorf("absorb did not wait to arrival: now=%g arrive=%g", p.Now(), pkt.Arrive)
		}
		p.Recycle(pkt)
		if n := len(p.DrainBatch(TagUser, nil)); n != 0 {
			return fmt.Errorf("drain of empty queue took %d packets", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArrivalOrdering: the receiver pops packets in virtual-arrival
// order even when pushed out of order.
func TestArrivalOrdering(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			// Big then small: the small one overtakes in virtual time
			// because it is sent later but arrives earlier? No — same
			// sender, so arrivals are ordered. Instead: send a huge one
			// then advance and send a tiny one timed to arrive first is
			// impossible from one sender. Use payload sizes so arrival
			// gap is large and verify FIFO per sender.
			p.SendPooled(1, TagUser, []byte{1})
			p.SendPooled(1, TagUser, []byte{2})
			p.SendPooled(1, TagUser, []byte{3})
			p.SendPooled(1, TagData, nil)
			return nil
		}
		p.Recycle(p.Recv(TagData))
		batch := p.DrainBatch(TagUser, nil)
		if len(batch) != 3 {
			return fmt.Errorf("drained %d packets, want 3", len(batch))
		}
		var got []byte
		for _, pkt := range batch {
			p.Absorb(pkt)
			got = append(got, pkt.Payload[0])
			p.Recycle(pkt)
		}
		for i, b := range got {
			if int(b) != i+1 {
				return fmt.Errorf("out of order: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyToOne: concurrent senders into one inbox are all delivered.
func TestManyToOne(t *testing.T) {
	const senders = 15
	rep, err := Run(testConfig(4, 4), func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < senders; i++ {
				p.Recycle(p.Recv(TagUser))
			}
			return nil
		}
		p.SendPooled(0, TagUser, []byte{byte(p.Rank())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Ranks[0].Stats.RecvMsgs; got != senders {
		t.Fatalf("rank 0 received %d, want %d", got, senders)
	}
}

// sendFirstTracer fails a run in which a receive is reported before its
// send on the same (src, dst, tag) channel. PacketSent yields before it
// records, so a send that is traced only after the wire has the packet
// loses the race to an already-woken receiver.
type sendFirstTracer struct {
	mu       sync.Mutex
	inFlight map[[3]uint64]int
	early    int
}

func (s *sendFirstTracer) PacketSent(src, dst machine.Rank, tag Tag, size int, sent, arrive float64) {
	runtime.Gosched()
	s.mu.Lock()
	s.inFlight[[3]uint64{uint64(src), uint64(dst), uint64(tag)}]++
	s.mu.Unlock()
}

func (s *sendFirstTracer) PacketReceived(src, dst machine.Rank, tag Tag, size int, now float64) {
	s.mu.Lock()
	k := [3]uint64{uint64(src), uint64(dst), uint64(tag)}
	if s.inFlight[k]--; s.inFlight[k] < 0 {
		s.early++
	}
	s.mu.Unlock()
}

func (s *sendFirstTracer) SpanBegin(rank machine.Rank, name string, t float64)          {}
func (s *sendFirstTracer) SpanEnd(rank machine.Rank, name string, t float64)            {}
func (s *sendFirstTracer) Mark(rank machine.Rank, name string, value uint64, t float64) {}

// TestTraceSendPrecedesReceive: every PacketReceived a Tracer sees has
// its PacketSent behind it. ChromeTracer drops the flow arrow of a
// receive it cannot match to a recorded send.
func TestTraceSendPrecedesReceive(t *testing.T) {
	const msgs = 200
	tr := &sendFirstTracer{inFlight: make(map[[3]uint64]int)}
	cfg := testConfig(1, 4)
	cfg.Trace = tr
	_, err := Run(cfg, func(p *Proc) error {
		// A ring: each rank's receiver is parked in Recv when the send
		// reaches it, so the push wakes it at once.
		next := machine.Rank((int(p.Rank()) + 1) % p.WorldSize())
		for i := 0; i < msgs; i++ {
			if p.Rank() == 0 {
				p.SendPooled(next, TagUser, []byte{byte(i)})
				p.Recycle(p.Recv(TagUser))
			} else {
				p.Recycle(p.Recv(TagUser))
				p.SendPooled(next, TagUser, []byte{byte(i)})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.early != 0 {
		t.Fatalf("%d of %d receives were traced before their send", tr.early, 4*msgs)
	}
}

func TestStragglerComputeScale(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.ComputeScale = func(r machine.Rank) float64 {
		if r == 1 {
			return 10
		}
		return 1
	}
	rep, err := Run(cfg, func(p *Proc) error {
		p.Compute(1e-3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r0, r1 := rep.Ranks[0].Time, rep.Ranks[1].Time; math.Abs(r1-10*r0) > 1e-12 {
		t.Fatalf("straggler scaling: %g vs %g", r0, r1)
	}
}

func TestRngDeterminism(t *testing.T) {
	vals := make([]int64, 4)
	run := func() []int64 {
		out := make([]int64, 4)
		var mu sync.Mutex
		_, err := Run(testConfig(2, 2), func(p *Proc) error {
			v := p.Rng().Int63()
			mu.Lock()
			out[p.Rank()] = v
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	vals = run()
	again := run()
	for i := range vals {
		if vals[i] != again[i] {
			t.Fatalf("rank %d rng differs across runs", i)
		}
	}
	if vals[0] == vals[1] {
		t.Fatal("different ranks should have different streams")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	_, err := Run(testConfig(1, 1), func(p *Proc) error {
		p.SendPooled(machine.Rank(99), TagUser, nil)
		return nil
	})
	if err == nil {
		t.Fatal("invalid destination should panic -> error")
	}
}

func TestNegativeComputePanics(t *testing.T) {
	_, err := Run(testConfig(1, 1), func(p *Proc) error {
		p.Compute(-1)
		return nil
	})
	if err == nil {
		t.Fatal("negative compute should panic -> error")
	}
}

func TestInboxDepthTracking(t *testing.T) {
	rep, err := Run(testConfig(1, 2), func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				p.SendPooled(1, TagUser, nil)
			}
			p.SendPooled(1, TagData, nil)
			return nil
		}
		p.Recycle(p.Recv(TagData))
		pkts := p.DrainBatch(TagUser, nil)
		if len(pkts) != 10 {
			return fmt.Errorf("pending = %d", len(pkts))
		}
		for _, pkt := range pkts {
			p.Absorb(pkt)
			p.Recycle(pkt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxInboxDepth() < 10 {
		t.Fatalf("max inbox depth = %d, want >= 10", rep.MaxInboxDepth())
	}
}

// TestReportUtilizationBounds: utilization is in (0, 1] and wait+busy
// accounts for each rank's elapsed time.
func TestReportUtilizationBounds(t *testing.T) {
	rep, err := Run(testConfig(2, 2), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Compute(1e-3)
			for i := 1; i < p.WorldSize(); i++ {
				p.SendPooled(machine.Rank(i), TagUser, make([]byte, 1024))
			}
			return nil
		}
		p.Recycle(p.Recv(TagUser))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	u := rep.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %g", u)
	}
	for _, rr := range rep.Ranks {
		if math.Abs(rr.Busy+rr.Wait-rr.Time) > 1e-12 {
			t.Fatalf("rank %d: busy %g + wait %g != time %g", rr.Rank, rr.Busy, rr.Wait, rr.Time)
		}
	}
}
