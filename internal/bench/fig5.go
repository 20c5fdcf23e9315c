package bench

import (
	"fmt"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// topoPlan regenerates the structural content of Figs. 1-4: for an
// example cluster it tabulates, per routing scheme, the maximum number
// of direct remote partners any core has and the worst-case hop count —
// the quantities the exchange-topology diagrams illustrate. It runs no
// simulated world, so it is one cell.
func topoPlan(Preset) Plan {
	pl := Plan{Table: &Table{ID: "topo", Title: "exchange topology summary (N=16 nodes, C=4 cores)"}}
	pl.addRows("topo", func() []Row {
		topo := machine.New(16, 4)
		var rows []Row
		for _, s := range machine.Schemes {
			rows = append(rows, Row{
				Labels: []Label{{Key: "scheme", Val: s.String()}},
				Values: []Value{
					{Key: "max_remote_partners", Val: float64(topo.MaxRemotePartners(s))},
					{Key: "max_hops", Val: float64(machine.MaxHops(s))},
				},
			})
		}
		return rows
	})
	return pl
}

// fig5Plan regenerates the bandwidth-vs-message-size curve: for each size it
// reports the cost model's effective bandwidth and a measured value from
// an actual two-rank transfer on the simulated transport (the paper
// measured MVAPICH between two Quartz ranks). It then adds the scheme
// markers of Fig. 5: for a fixed per-core send volume on a 64-node,
// 32-core system, the average remote message size each routing scheme
// achieves — V/(NC) for no routing, V/N for NodeLocal/NodeRemote, VC/N
// for NLNR — and the bandwidth the curve yields at that size.
func fig5Plan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig5", Title: "network bandwidth between two ranks vs message size"}}
	for size := 8; size <= 4<<20; size *= 4 {
		protocol := "eager"
		if size > 16*1024 {
			protocol = "rendezvous"
		}
		pl.add(fmt.Sprintf("fig5/size=%d", size), func() Row {
			return Row{
				Labels: []Label{
					{Key: "msg_size", Val: fmt.Sprintf("%d", size)},
					{Key: "protocol", Val: protocol},
				},
				Values: []Value{
					{Key: "model_bw", Val: quartzGBs(p.Model.EffectiveBandwidth(size)), Unit: "GB/s"},
					{Key: "measured_bw", Val: quartzGBs(measureBandwidth(p, size)), Unit: "GB/s"},
				},
			}
		})
	}
	// Scheme markers: V = 1 MiB per core, N = 64, C = 32 (as in the
	// paper's annotation, which assumes 32 cores per node). Pure model
	// evaluation — one cheap cell, no simulated world.
	pl.addRows("fig5/markers", func() []Row {
		const v, n, c = 1 << 20, 64, 32
		var rows []Row
		for _, m := range []struct {
			scheme string
			size   float64
		}{
			{"NoRoute", float64(v) / (n * c)},
			{"NodeLocal/NodeRemote", float64(v) / n},
			{"NLNR", float64(v) * c / n},
		} {
			rows = append(rows, Row{
				Labels: []Label{
					{Key: "msg_size", Val: fmt.Sprintf("%.0f", m.size)},
					{Key: "protocol", Val: "marker:" + m.scheme},
				},
				Values: []Value{
					{Key: "model_bw", Val: quartzGBs(p.Model.EffectiveBandwidth(int(m.size))), Unit: "GB/s"},
				},
			})
		}
		return rows
	})
	return pl
}

// pingPongMsgs is the message count of one bandwidth measurement.
const pingPongMsgs = 8

// pingPongWorld runs the Fig. 5 measurement workload — pingPongMsgs
// messages of the given size bounced between two ranks on different
// nodes — and returns the run report. Every Recv is paired with a
// Recycle, which Run's packet ledger checks.
func pingPongWorld(p Preset, size int) *transport.Report {
	rep, _ := runWorld(p, 2, nil, func(proc *transport.Proc, ex *extras) error {
		peer := proc.Topo().RankOf(1, 0)
		switch proc.Rank() {
		case 0:
			for i := 0; i < pingPongMsgs; i++ {
				proc.Send(peer, transport.TagUser, make([]byte, size))
				proc.Recycle(proc.Recv(transport.TagUser))
			}
		case peer:
			for i := 0; i < pingPongMsgs; i++ {
				proc.Recycle(proc.Recv(transport.TagUser))
				proc.Send(0, transport.TagUser, make([]byte, size))
			}
		}
		return nil
	})
	return rep
}

// measureBandwidth ping-pongs messages of the given size between two
// ranks on different nodes and returns the achieved one-way
// bytes/second (the osu_bw-style measurement behind Fig. 5). Ping-pong
// rather than a pipelined burst, so the per-message latency shows up in
// the small-message regime exactly as in the paper's plot.
func measureBandwidth(p Preset, size int) float64 {
	rep := pingPongWorld(p, size)
	elapsed := rep.Makespan()
	if elapsed <= 0 {
		return 0
	}
	return float64(2*pingPongMsgs*size) / elapsed
}
