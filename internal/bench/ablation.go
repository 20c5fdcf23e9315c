package bench

import (
	"fmt"

	"ygm/internal/apps"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// ablationMailboxPlan sweeps the mailbox capacity for degree counting at
// a fixed node count — the design parameter the paper fixes at 2^18 and
// scales with N in Fig. 8d. Too small: flushes defeat coalescing; too
// large: messages sit in buffers and receive-side overlap disappears.
func ablationMailboxPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "ablation-mailbox", Title: "mailbox capacity sweep (degree counting, NLNR and NoRoute)"}}
	nodes := p.WeakNodes[len(p.WeakNodes)-1]
	world := uint64(nodes * p.Cores)
	numVertices := p.DegreeVerticesPerRank * world
	for capacity := 16; capacity <= 16*p.MailboxCap; capacity *= 4 {
		for _, scheme := range []machine.Scheme{machine.NoRoute, machine.NLNR} {
			pl.add(fmt.Sprintf("ablation-mailbox/cap=%d/scheme=%s", capacity, scheme), func() Row {
				q := p
				q.MailboxCap = capacity
				row := degreeRun(q, nodes, scheme, numVertices, p.DegreeEdgesPerRank)
				row.Labels = append(row.Labels, Label{Key: "capacity", Val: itoa(capacity)})
				return row
			})
		}
	}
	return pl
}

// ablationStragglerPlan is the paper's core motivation measured directly:
// the same many-to-many counting workload run (a) through the
// asynchronous mailbox and (b) through the synchronous ALLTOALLV mailbox
// on NoRoute (one round with every peer plus one round-count verdict per
// batch), with one rank's compute slowed 10x. The mailbox couples ranks
// only through message routes; the all-to-all couples everyone to the
// straggler every batch.
func ablationStragglerPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "ablation-straggler", Title: "async mailbox vs synchronous ALLTOALLV with a 10x straggler"}}
	nodes := p.WeakNodes[len(p.WeakNodes)-1]
	world := nodes * p.Cores
	const batches = 4
	edgesPerRank := p.DegreeEdgesPerRank

	straggler := func(r machine.Rank) float64 {
		if r == 0 {
			return 10
		}
		return 1
	}
	exchanges := []struct {
		name string
		opts ygm.Options
	}{
		// (a) the YGM mailbox (round-matched, the paper's protocol).
		{"ygm-async", ygm.Options{Scheme: machine.NLNR}},
		// (b) synchronous ALLTOALLV exchange per batch.
		{"alltoallv-sync", ygm.Options{Scheme: machine.NoRoute, Exchange: ygm.SyncExchange}},
	}

	for _, mode := range []string{"none", "straggler"} {
		scaleFn := straggler
		if mode == "none" {
			scaleFn = nil
		}
		for _, ex := range exchanges {
			pl.add("ablation-straggler/"+ex.name+"/load="+mode, func() Row {
				rep := degreeCount(p, nodes, scaleFn, apps.DegreeCountConfig{
					Mailbox:      ex.opts,
					NumVertices:  p.DegreeVerticesPerRank * uint64(world),
					EdgesPerRank: edgesPerRank,
					BatchSize:    edgesPerRank / batches,
				})
				return Row{
					Labels: []Label{{Key: "exchange", Val: ex.name}, {Key: "load", Val: mode}},
					Values: perfValuesAll(rep, float64(edgesPerRank)*float64(world), "edges"),
				}
			})
		}
	}
	return pl
}

// ablationZeroCopyPlan evaluates the Section VII future-work direction: a
// hybrid (threads-style) runtime where on-node hops hand over pointers
// instead of copying. Local per-byte costs vanish; the win is largest
// for NLNR, whose extra local exchange is pure copy overhead.
func ablationZeroCopyPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "ablation-zerocopy", Title: "MPI-only copies vs zero-copy local exchange (Section VII)"}}
	nodes := p.WeakNodes[len(p.WeakNodes)-1]
	world := uint64(nodes * p.Cores)
	numVertices := p.DegreeVerticesPerRank * world
	for _, zero := range []bool{false, true} {
		mode := "copying"
		if zero {
			mode = "zero-copy"
		}
		for _, scheme := range []machine.Scheme{machine.NodeRemote, machine.NLNR} {
			pl.add(fmt.Sprintf("ablation-zerocopy/%s/scheme=%s", mode, scheme), func() Row {
				q := p
				q.Model.ZeroCopyLocal = zero
				row := degreeRun(q, nodes, scheme, numVertices, p.DegreeEdgesPerRank)
				row.Labels = append(row.Labels, Label{Key: "local", Val: mode})
				return row
			})
		}
	}
	return pl
}

// ablationBroadcastPlan measures the remote cost of asynchronous broadcasts
// per scheme directly (Section III-C's factor-of-C claim): every rank
// issues B broadcasts and the table reports remote packets and time.
func ablationBroadcastPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "ablation-bcast", Title: "broadcast remote cost per scheme"}}
	nodes := p.WeakNodes[len(p.WeakNodes)-1]
	const bcastsPerRank = 8
	for _, scheme := range machine.Schemes {
		pl.add("ablation-bcast/scheme="+scheme.String(), func() Row {
			rep, _ := runWorld(p, nodes, nil, func(proc *transport.Proc, ex *extras) error {
				mb := ygm.New(proc, func(s ygm.Sender, payload []byte) {},
					ygm.WithScheme(scheme),
					ygm.WithCapacity(p.MailboxCap),
					ygm.WithExchange(ygm.LazyExchange))
				msg := make([]byte, 16)
				for i := 0; i < bcastsPerRank; i++ {
					mb.Broadcast(msg)
				}
				mb.WaitEmpty()
				return nil
			})
			world := nodes * p.Cores
			deliveries := float64(bcastsPerRank) * float64(world) * float64(world-1)
			return Row{
				Labels: []Label{{Key: "scheme", Val: scheme.String()}},
				Values: append(perfValues(rep, deliveries, "msgs"),
					Value{Key: "bcasts", Val: float64(bcastsPerRank * world)}),
			}
		})
	}
	return pl
}

// ablationExchangePlan compares the exchange implementations of Section
// III-A on identical degree-counting traffic: the asynchronous send/recv
// mailbox, lazy (ranks enter and leave communication independently) and
// round-matched, versus the bulk-synchronous SyncMailbox (each phase an
// ALLTOALLV among its partners, as performed better on IBM BG/Q).
// Balanced load favors the all-to-all; adding a straggler flips the
// comparison.
func ablationExchangePlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "ablation-exchange", Title: "async send/recv vs ALLTOALLV-backed exchanges (Section III-A)"}}
	nodes := p.WeakNodes[len(p.WeakNodes)-1]
	world := nodes * p.Cores
	edgesPerRank := p.DegreeEdgesPerRank

	const batches = 8
	styles := []struct {
		name  string
		style ygm.ExchangeStyle
		// batch is the WaitEmpty cadence. The asynchronous styles wait
		// once, at the end; the bulk-synchronous one, whose sends only
		// queue, waits after every jitter round.
		batch int
	}{
		{"async", ygm.LazyExchange, 0},
		{"round", ygm.RoundExchange, 0},
		{"alltoallv", ygm.SyncExchange, edgesPerRank / batches},
	}
	for _, scheme := range []machine.Scheme{machine.NodeRemote, machine.NLNR} {
		for _, mode := range []string{"balanced", "jitter"} {
			jitter := 0.0
			if mode == "jitter" {
				// Per-batch random compute comparable to a batch's
				// communication time: rotating imbalance, not one fixed
				// straggler.
				jitter = 100e-6
			}
			for _, st := range styles {
				pl.add(fmt.Sprintf("ablation-exchange/%s/scheme=%s/load=%s", st.name, scheme, mode), func() Row {
					rep := degreeCount(p, nodes, nil, apps.DegreeCountConfig{
						Mailbox:        ygm.Options{Scheme: scheme, Exchange: st.style},
						NumVertices:    p.DegreeVerticesPerRank * uint64(world),
						EdgesPerRank:   edgesPerRank,
						BatchSize:      st.batch,
						JitterRounds:   batches,
						JitterPerRound: jitter,
					})
					return Row{
						Labels: []Label{
							{Key: "scheme", Val: scheme.String()},
							{Key: "exchange", Val: st.name},
							{Key: "load", Val: mode},
						},
						Values: perfValuesAll(rep, float64(edgesPerRank)*float64(world), "edges"),
					}
				})
			}
		}
	}
	return pl
}
