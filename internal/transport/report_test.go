package transport

import (
	"math"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/obs"
)

// TestReportUtilization checks the aggregate-utilization arithmetic on
// hand-built reports: busy time over world-size x makespan, with the
// zero-makespan edge defined as fully utilized.
func TestReportUtilization(t *testing.T) {
	r := &Report{Ranks: []RankReport{
		{Rank: 0, Time: 10, Busy: 10},
		{Rank: 1, Time: 8, Busy: 5},
	}}
	// makespan 10, total busy 15, 2 ranks: 15 / 20.
	if got, want := r.Utilization(), 0.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Utilization() = %g, want %g", got, want)
	}

	empty := &Report{Ranks: []RankReport{{Rank: 0}}}
	if got := empty.Utilization(); got != 1 {
		t.Fatalf("zero-makespan Utilization() = %g, want 1", got)
	}
}

// TestReportUtilizationFromRun sanity-checks the same quantity on a real
// run: utilization must land in (0, 1] and ranks that compute equally
// should sit near full utilization.
func TestReportUtilizationFromRun(t *testing.T) {
	rep, err := Run(Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  2,
	}, func(p *Proc) error {
		p.Compute(1e-3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	u := rep.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("Utilization() = %g, want in (0, 1]", u)
	}
	if u < 0.9 {
		t.Fatalf("equal-compute ranks utilize %g, want near 1", u)
	}
}

// TestReportMaxInboxDepth checks both the hand-built maximum and that a
// real burst run surfaces a sensible high-water mark.
func TestReportMaxInboxDepth(t *testing.T) {
	r := &Report{Ranks: []RankReport{
		{Rank: 0, MaxInboxDepth: 3},
		{Rank: 1, MaxInboxDepth: 17},
		{Rank: 2, MaxInboxDepth: 5},
	}}
	if got := r.MaxInboxDepth(); got != 17 {
		t.Fatalf("MaxInboxDepth() = %d, want 17", got)
	}
	if got := (&Report{}).MaxInboxDepth(); got != 0 {
		t.Fatalf("empty report MaxInboxDepth() = %d, want 0", got)
	}
}

func TestReportMaxInboxDepthFromRun(t *testing.T) {
	const msgs = 16
	rep, err := Run(Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  2,
	}, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				p.Send(1, TagUser, []byte("m"))
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			p.Recycle(p.Recv(TagUser))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rep.MaxInboxDepth()
	if got < 1 || got > msgs {
		t.Fatalf("MaxInboxDepth() = %d, want in [1, %d]", got, msgs)
	}
}

// TestReportMetricsMergesRanks checks that Report.Metrics is a true
// merge: counters add across ranks and gauges keep the largest
// high-water mark.
func TestReportMetricsMergesRanks(t *testing.T) {
	mk := func(c uint64, gmax float64) obs.Snapshot {
		reg := obs.NewRegistry()
		reg.Counter("c").Add(c)
		reg.Gauge("g").Set(gmax)
		return reg.Snapshot()
	}
	r := &Report{Ranks: []RankReport{
		{Rank: 0, Metrics: mk(3, 10)},
		{Rank: 1, Metrics: mk(4, 25)},
		{Rank: 2, Metrics: mk(5, 7)},
	}}
	m := r.Metrics()
	if got := m.Counter("c"); got != 12 {
		t.Fatalf("merged counter = %d, want 12", got)
	}
	if g := m.Gauges["g"]; g.Max != 25 {
		t.Fatalf("merged gauge max = %g, want 25", g.Max)
	}
}

// TestReportMetricsFromRunIncludeBuiltins verifies the built-in metric
// names the transport registers appear in a real run's merged snapshot
// and balance against the traffic the run generated.
func TestReportMetricsFromRunIncludeBuiltins(t *testing.T) {
	const msgs = 8
	rep, err := Run(Config{
		Topo:  machine.New(2, 1),
		Model: netsim.Quartz(),
		Seed:  2,
	}, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				p.Send(1, TagUser, []byte("0123456789abcdef"))
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			p.Recycle(p.Recv(TagUser))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics()
	if m.Counter("inbox.pushes") != msgs {
		t.Fatalf("inbox.pushes = %d, want %d", m.Counter("inbox.pushes"), msgs)
	}
}
