package bench

import (
	"fmt"

	"ygm/internal/apps"
	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/graph"
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
// asynchronous mailbox and (b) through synchronous ALLTOALLV exchanges,
// with one rank's compute slowed 10x. The mailbox couples ranks only
// through message routes; the collective couples everyone to the
// straggler every batch.
func ablationStragglerPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "ablation-straggler", Title: "async mailbox vs synchronous ALLTOALLV with a 10x straggler"}}
	nodes := p.WeakNodes[len(p.WeakNodes)-1]
	world := nodes * p.Cores
	numVertices := p.DegreeVerticesPerRank * uint64(world)
	const batches = 4
	edgesPerRank := p.DegreeEdgesPerRank

	straggler := func(r machine.Rank) float64 {
		if r == 0 {
			return 10
		}
		return 1
	}

	for _, mode := range []string{"none", "straggler"} {
		scaleFn := straggler
		if mode == "none" {
			scaleFn = nil
		}
		// (a) the YGM mailbox (round-matched, the paper's protocol).
		pl.add("ablation-straggler/ygm-async/load="+mode, func() Row {
			cfg := apps.DegreeCountConfig{
				Mailbox:      ygm.Options{Scheme: machine.NLNR, Capacity: p.MailboxCap},
				NumVertices:  numVertices,
				EdgesPerRank: edgesPerRank,
				BatchSize:    edgesPerRank / batches,
				NewGen: func(proc *transport.Proc) graph.Generator {
					return graph.NewUniform(numVertices, p.Seed*31+int64(proc.Rank()))
				},
			}
			rep, _ := runWorld(p, nodes, scaleFn, func(proc *transport.Proc, ex *extras) error {
				_, err := apps.DegreeCount(proc, cfg)
				return err
			})
			return Row{
				Labels: []Label{{Key: "exchange", Val: "ygm-async"}, {Key: "load", Val: mode}},
				Values: perfValues(rep, float64(edgesPerRank)*float64(world), "edges"),
			}
		})

		// (b) synchronous ALLTOALLV exchange per batch.
		pl.add("ablation-straggler/alltoallv-sync/load="+mode, func() Row {
			rep, _ := runWorld(p, nodes, scaleFn, func(proc *transport.Proc, ex *extras) error {
				return syncDegreeCount(proc, numVertices, edgesPerRank, batches, p.Seed)
			})
			return Row{
				Labels: []Label{{Key: "exchange", Val: "alltoallv-sync"}, {Key: "load", Val: mode}},
				Values: perfValues(rep, float64(edgesPerRank)*float64(world), "edges"),
			}
		})
	}
	return pl
}

// syncDegreeCount is the bulk-synchronous strawman: per batch, each rank
// buckets its messages by destination and the world exchanges them with
// one ALLTOALLV — the conventional collective the paper contrasts with.
func syncDegreeCount(proc *transport.Proc, numVertices uint64, edgesPerRank, batches int, seed int64) error {
	world := proc.WorldSize()
	comm := collective.World(proc)
	gen := graph.NewUniform(numVertices, seed*31+int64(proc.Rank()))
	degrees := make([]uint64, graph.LocalCount(numVertices, world, int(proc.Rank())))
	perBatch := edgesPerRank / batches
	cpm := proc.Model().ComputePerMessage
	for b := 0; b < batches; b++ {
		buckets := make([]*codec.Writer, world)
		for i := range buckets {
			buckets[i] = &codec.Writer{}
		}
		for k := 0; k < perBatch; k++ {
			e := gen.Next()
			buckets[graph.Owner(e.U, world)].Uvarint(e.U)
			buckets[graph.Owner(e.V, world)].Uvarint(e.V)
		}
		payloads := make([][]byte, world)
		for i, w := range buckets {
			payloads[i] = w.Bytes()
		}
		for _, blob := range comm.Alltoallv(payloads) {
			r := codec.NewReader(blob)
			for r.Remaining() > 0 {
				v, err := r.Uvarint()
				if err != nil {
					return err
				}
				proc.Compute(cpm)
				degrees[graph.LocalID(v, world)]++
			}
		}
	}
	return nil
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

// ablationExchangePlan compares the two exchange implementations of
// Section III-A on identical degree-counting traffic: the asynchronous
// send/recv mailbox (ranks enter and leave communication independently)
// versus the ALLTOALLV-backed SyncMailbox (each phase is a collective,
// as performed better on IBM BG/Q). Balanced load favors the collective;
// adding a straggler flips the comparison.
func ablationExchangePlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "ablation-exchange", Title: "async send/recv vs ALLTOALLV-backed exchanges (Section III-A)"}}
	nodes := p.WeakNodes[len(p.WeakNodes)-1]
	world := nodes * p.Cores
	numVertices := p.DegreeVerticesPerRank * uint64(world)
	edgesPerRank := p.DegreeEdgesPerRank

	const batches = 8
	for _, scheme := range []machine.Scheme{machine.NodeRemote, machine.NLNR} {
		for _, mode := range []string{"balanced", "jitter"} {
			jitter := 0.0
			if mode == "jitter" {
				// Per-batch random compute comparable to a batch's
				// communication time: rotating imbalance, not one fixed
				// straggler.
				jitter = 100e-6
			}
			labels := func(style string) []Label {
				return []Label{
					{Key: "scheme", Val: scheme.String()},
					{Key: "exchange", Val: style},
					{Key: "load", Val: mode},
				}
			}
			name := func(style string) string {
				return fmt.Sprintf("ablation-exchange/%s/scheme=%s/load=%s", style, scheme, mode)
			}
			// Lazy-forwarding mailbox: jitter rounds run back to back
			// with one terminal WaitEmpty — this variant never blocks on
			// exchange partners (Algorithm 1 waits once).
			pl.add(name("async"), func() Row {
				cfg := apps.DegreeCountConfig{
					Mailbox:        ygm.Options{Scheme: scheme, Capacity: p.MailboxCap, Exchange: ygm.LazyExchange},
					NumVertices:    numVertices,
					EdgesPerRank:   edgesPerRank,
					JitterRounds:   batches,
					JitterPerRound: jitter,
					NewGen: func(proc *transport.Proc) graph.Generator {
						return graph.NewUniform(numVertices, p.Seed*31+int64(proc.Rank()))
					},
				}
				rep, _ := runWorld(p, nodes, nil, func(proc *transport.Proc, ex *extras) error {
					_, err := apps.DegreeCount(proc, cfg)
					return err
				})
				return Row{Labels: labels("async"), Values: perfValues(rep, float64(edgesPerRank)*float64(world), "edges")}
			})

			// Round-matched exchanges (the paper's protocol rounds).
			pl.add(name("round"), func() Row {
				rep, _ := runWorld(p, nodes, nil, func(proc *transport.Proc, ex *extras) error {
					return roundMailboxDegreeCount(proc, scheme, numVertices, edgesPerRank, batches, jitter, p.Seed, p.MailboxCap)
				})
				return Row{Labels: labels("round"), Values: perfValuesAll(rep, float64(edgesPerRank)*float64(world), "edges")}
			})

			// ALLTOALLV-backed SyncMailbox running the same counting.
			pl.add(name("alltoallv"), func() Row {
				rep, _ := runWorld(p, nodes, nil, func(proc *transport.Proc, ex *extras) error {
					return syncMailboxDegreeCount(proc, scheme, numVertices, edgesPerRank, batches, jitter, p.Seed)
				})
				return Row{Labels: labels("alltoallv"), Values: perfValuesAll(rep, float64(edgesPerRank)*float64(world), "edges")}
			})
		}
	}
	return pl
}

// roundMailboxDegreeCount is Algorithm 1 on the RoundMailbox: sends
// trigger capacity rounds; quiescence per jitter group comes from the
// terminal WaitEmpty.
func roundMailboxDegreeCount(proc *transport.Proc, scheme machine.Scheme, numVertices uint64, edgesPerRank, batches int, jitter float64, seed int64, capacity int) error {
	world := proc.WorldSize()
	degrees := make([]uint64, graph.LocalCount(numVertices, world, int(proc.Rank())))
	mb := ygm.New(proc, func(s ygm.Sender, payload []byte) {
		v, err := codec.NewReader(payload).Uvarint()
		if err != nil {
			panic(err)
		}
		degrees[graph.LocalID(v, world)]++
	}, ygm.WithScheme(scheme), ygm.WithCapacity(capacity), ygm.WithExchange(ygm.RoundExchange))
	gen := graph.NewUniform(numVertices, seed*31+int64(proc.Rank()))
	jitterChunk := edgesPerRank / batches
	for i := 0; i < edgesPerRank; i++ {
		if jitter > 0 && jitterChunk > 0 && i%jitterChunk == 0 {
			proc.Compute(proc.Rng().Float64() * jitter)
		}
		e := gen.Next()
		for _, v := range []uint64{e.U, e.V} {
			w := codec.NewWriter(10)
			w.Uvarint(v)
			mb.Send(machine.Rank(graph.Owner(v, world)), w.Bytes())
		}
	}
	mb.WaitEmpty()
	return nil
}

// syncMailboxDegreeCount is Algorithm 1 on the SyncMailbox: queue a
// batch, run the collective exchange, repeat.
func syncMailboxDegreeCount(proc *transport.Proc, scheme machine.Scheme, numVertices uint64, edgesPerRank, batches int, jitter float64, seed int64) error {
	world := proc.WorldSize()
	degrees := make([]uint64, graph.LocalCount(numVertices, world, int(proc.Rank())))
	mb := ygm.New(proc, func(s ygm.Sender, payload []byte) {
		v, err := codec.NewReader(payload).Uvarint()
		if err != nil {
			panic(err)
		}
		degrees[graph.LocalID(v, world)]++
	}, ygm.WithScheme(scheme), ygm.WithExchange(ygm.SyncExchange)).(*ygm.SyncMailbox)
	gen := graph.NewUniform(numVertices, seed*31+int64(proc.Rank()))
	send := func(v uint64) {
		w := codec.NewWriter(10)
		w.Uvarint(v)
		mb.Send(machine.Rank(graph.Owner(v, world)), w.Bytes())
	}
	perBatch := edgesPerRank / batches
	for b := 0; b < batches; b++ {
		if jitter > 0 {
			proc.Compute(proc.Rng().Float64() * jitter)
		}
		n := perBatch
		if b == batches-1 {
			n = edgesPerRank - perBatch*(batches-1)
		}
		for k := 0; k < n; k++ {
			e := gen.Next()
			send(e.U)
			send(e.V)
		}
		mb.ExchangeUntilQuiet()
	}
	return nil
}
