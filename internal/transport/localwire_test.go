// Regression coverage for Report's wall-clock time base (Report.Wall,
// Makespan, Utilization) on the real-time LocalWire backend, and for the
// execution model each wire picks.
package transport_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// TestLocalWireWallReport pins the satellite-6 contract: under a
// real-time wire the report advertises Wall, Makespan measures actual
// host seconds, per-rank Time decomposes into Busy + Wait, and
// Utilization stays a well-defined ratio in (0, 1].
func TestLocalWireWallReport(t *testing.T) {
	const spin = 20 * time.Millisecond
	rep, err := transport.Run(
		transport.NewConfig(machine.New(2, 2), transport.WithWire(transport.LocalWire{})),
		func(p *transport.Proc) error {
			// Real work (busy) on every rank, then a real blocking receive
			// (wait) on rank 0 so both components of the decomposition are
			// nonzero somewhere.
			deadline := time.Now().Add(spin)
			for time.Now().Before(deadline) {
			}
			if p.Rank() == 1 {
				buf := p.AcquireBuf(1)
				buf[0] = 42
				p.SendPooled(0, transport.TagUser, buf)
			}
			if p.Rank() == 0 {
				time.Sleep(5 * time.Millisecond) // let the sender win the race, so Recv parks
				pkt := p.Recv(transport.TagUser)
				p.Recycle(pkt)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Wall {
		t.Fatalf("LocalWire report must advertise Wall time base")
	}
	if ms := rep.Makespan(); ms < spin.Seconds() {
		t.Errorf("Makespan %.4fs is less than the %.0fms every rank provably spun", ms, float64(spin.Milliseconds()))
	}
	// Wall makespans are bounded only by host scheduling, but a run this
	// small finishing in over a minute means the time base is broken
	// (e.g. stamped against a zero epoch).
	if ms := rep.Makespan(); ms > 60 {
		t.Errorf("Makespan %.4fs is implausible for a 20ms workload; wrong epoch?", ms)
	}
	if u := rep.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization %.4f outside (0, 1]", u)
	}
	for _, rr := range rep.Ranks {
		if rr.Time < 0 || rr.Busy < 0 || rr.Wait < 0 {
			t.Errorf("rank %d: negative duration in %+v", rr.Rank, rr)
		}
		if math.Abs(rr.Time-(rr.Busy+rr.Wait)) > 1e-6 {
			t.Errorf("rank %d: Time %.6f != Busy %.6f + Wait %.6f", rr.Rank, rr.Time, rr.Busy, rr.Wait)
		}
	}
}

// TestSimWireReportNotWall pins the other side: the default simulated
// backend reports virtual seconds and says so.
func TestSimWireReportNotWall(t *testing.T) {
	rep, err := transport.Run(
		transport.NewConfig(machine.New(1, 2)),
		func(p *transport.Proc) error {
			p.Compute(0.5)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wall {
		t.Fatalf("SimWire report must not advertise Wall")
	}
	if ms := rep.Makespan(); ms < 0.5 {
		t.Errorf("Makespan %.4f virtual seconds, expected >= 0.5 (the charged compute)", ms)
	}
}

// TestWirePicksExecutionModel pins that the wire, not a setting, picks
// the execution model: every simulated world runs under the M:N
// scheduler with GOMAXPROCS worker tokens (at most one per rank), every
// rank's first token grant counted as a dispatch, and the real-time
// wires run their ranks direct and report no scheduler metric at all.
func TestWirePicksExecutionModel(t *testing.T) {
	ring := func(p *transport.Proc) error {
		n := machine.Rank(p.WorldSize())
		p.SendPooled((p.Rank()+1)%n, transport.TagUser, []byte{1})
		p.Recycle(p.Recv(transport.TagUser))
		return nil
	}
	for _, world := range []int{1, 4, 64} {
		rep, err := transport.Run(transport.NewConfig(machine.New(world, 1)), ring)
		if err != nil {
			t.Fatal(err)
		}
		m := rep.Metrics()
		if d := m.Counter("sched.dispatches"); d < uint64(world) {
			t.Errorf("sim, %d ranks: sched.dispatches = %d, want at least one per rank", world, d)
		}
		if w, want := m.Gauges["sched.workers"].Last, min(runtime.GOMAXPROCS(0), world); int(w) != want {
			t.Errorf("sim, %d ranks: sched.workers = %v, want %d", world, w, want)
		}
	}
	noSched := func(wire string, rep *transport.Report) {
		m := rep.Metrics()
		for name := range m.Counters {
			if strings.HasPrefix(name, "sched.") {
				t.Errorf("%s: reports scheduler counter %s", wire, name)
			}
		}
		for name := range m.Gauges {
			if strings.HasPrefix(name, "sched.") {
				t.Errorf("%s: reports scheduler gauge %s", wire, name)
			}
		}
	}
	rep, err := transport.Run(transport.NewConfig(machine.New(4, 1),
		transport.WithWire(transport.LocalWire{})), ring)
	if err != nil {
		t.Fatal(err)
	}
	noSched("local", rep)
	t.Run("tcp", func(t *testing.T) {
		reps, errs := runTCPWorld(t, 2, ring)
		failOnRankErrors(t, errs)
		for _, rep := range reps {
			noSched("tcp", rep)
		}
	})
}
