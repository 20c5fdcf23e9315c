package bench

import (
	"fmt"
	"sync"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// extras aggregates per-rank scalar results across an SPMD run.
type extras struct {
	mu   sync.Mutex
	sums map[string]float64
	maxs map[string]float64
}

func newExtras() *extras {
	return &extras{sums: make(map[string]float64), maxs: make(map[string]float64)}
}

// add accumulates v into the named sum.
func (e *extras) add(key string, v float64) {
	e.mu.Lock()
	e.sums[key] += v
	e.mu.Unlock()
}

// setMax raises the named maximum to at least v.
func (e *extras) setMax(key string, v float64) {
	e.mu.Lock()
	if v > e.maxs[key] {
		e.maxs[key] = v
	}
	e.mu.Unlock()
}

// runWorld executes body over a nodes x cores simulated cluster.
func runWorld(p Preset, nodes int, straggler func(machine.Rank) float64,
	body func(proc *transport.Proc, ex *extras) error) (*transport.Report, *extras) {
	ex := newExtras()
	rep, err := transport.Run(transport.NewConfig(machine.New(nodes, p.Cores),
		transport.WithModel(p.Model),
		transport.WithSeed(p.Seed),
		transport.WithComputeScale(straggler),
		transport.WithTrace(p.Trace),
		transport.WithWire(p.newWire()),
	), func(proc *transport.Proc) error {
		return body(proc, ex)
	})
	if err != nil {
		// Benchmark workloads are fixed and validated by the test suite;
		// a failure here is a programming error worth stopping on.
		panic(fmt.Sprintf("bench: %d-node run failed: %v", nodes, err))
	}
	return rep, ex
}

// perfValues assembles the standard measurement columns of a scaling row:
// simulated time, throughput, remote traffic, and utilization. Traffic
// columns cover mailbox (TagData) packets only.
func perfValues(rep *transport.Report, items float64, itemUnit string) []Value {
	tot := rep.Totals()
	return perfRow(rep.Makespan(), items, itemUnit,
		tot.DataRemoteMsgs, tot.DataRemoteBytes, rep.Utilization())
}

// perfValuesAll is perfValues over every packet, including collective
// and termination-detection traffic — used wherever rows compare
// exchange styles, since the ALLTOALLV style moves its data on
// collective tags and every row must count by the same rule.
func perfValuesAll(rep *transport.Report, items float64, itemUnit string) []Value {
	tot := rep.Totals()
	return perfRow(rep.Makespan(), items, itemUnit,
		tot.RemoteMsgs, tot.RemoteBytes, rep.Utilization())
}

// opTime returns the operation-phase duration: makespan minus the latest
// rank's setup end. The paper times the operation (SpMV product, CC
// passes), not graph generation and distribution.
func opTime(makespan, setupEnd float64) float64 {
	if d := makespan - setupEnd; d > 0 {
		return d
	}
	return makespan
}

// opPhaseValues is perfValues with the time window clipped to the
// operation phase.
func opPhaseValues(rep *transport.Report, setupEnd, items float64, itemUnit string) []Value {
	tot := rep.Totals()
	return perfRow(opTime(rep.Makespan(), setupEnd), items, itemUnit,
		tot.DataRemoteMsgs, tot.DataRemoteBytes, rep.Utilization())
}

func perfRow(ms, items float64, itemUnit string, msgs, bytes uint64, util float64) []Value {
	rate := 0.0
	if ms > 0 {
		rate = items / ms / 1e6
	}
	avg := 0.0
	if msgs > 0 {
		avg = float64(bytes) / float64(msgs)
	}
	return []Value{
		{Key: "sim_time", Val: ms, Unit: "s"},
		{Key: "rate", Val: rate, Unit: "M" + itemUnit + "/s"},
		{Key: "remote_msgs", Val: float64(msgs), Unit: ""},
		{Key: "remote_MB", Val: float64(bytes) / 1e6, Unit: "MB"},
		{Key: "avg_remote_msg", Val: avg, Unit: "B"},
		{Key: "utilization", Val: util, Unit: ""},
	}
}

// schemeLabel builds the two standard labels of a scaling row.
func schemeLabel(nodes int, scheme machine.Scheme) []Label {
	return []Label{
		{Key: "nodes", Val: fmt.Sprintf("%d", nodes)},
		{Key: "scheme", Val: scheme.String()},
	}
}

// quartzGBs converts bytes/sec to GB/s for display.
func quartzGBs(bw float64) float64 { return bw / 1e9 }
