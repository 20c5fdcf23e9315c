package simtest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ygm/internal/machine"
	"ygm/internal/synch"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// watchdogInterval is the host-time deadlock polling cadence for fuzz
// runs. Much shorter than the production default: a mutant that wedges
// the world should fail the case in tens of milliseconds, not seconds.
const watchdogInterval = 25 * time.Millisecond

// testEmptySpinCap bounds the nonblocking TestEmpty barrier loop; a
// correct run converges in far fewer iterations, so hitting the cap is
// itself a termination-detection failure.
const testEmptySpinCap = 1 << 22

// Outcome is the full multi-oracle verdict of one fuzz run. The three
// error fields are independent dimensions: Runtime reports rank panics,
// deadlock-watchdog dumps, packet-ledger failures, or invalid cases
// (nothing else was checked); Delivery is the delivery verdict — the
// event log's exactly-once faults (synch.Judge) plus the harness's own
// route, payload, barrier and container-model checks; Synch is the
// synchronizability verdict (the run's event log was not
// reorder-equivalent to synchronous rounds, or its certificate failed
// independent validation).
type Outcome struct {
	Runtime  error
	Delivery error
	Synch    error
	// Cert is the validated synchronous round schedule when Synch is nil
	// and SynchChecked is true.
	Cert *synch.Certificate
	// SynchChecked reports whether the synchronizability oracle ran at
	// all (it is skipped when the run died at the Runtime level).
	SynchChecked bool
}

// Err flattens the outcome into the single error RunCase reports:
// runtime failures first (the other oracles saw a truncated run), then
// delivery, then synchronizability.
func (o Outcome) Err() error {
	switch {
	case o.Runtime != nil:
		return o.Runtime
	case o.Delivery != nil:
		return o.Delivery
	default:
		return o.Synch
	}
}

// judge produces the delivery and synchronizability verdicts of a run
// that finished, from its event log. viols are the harness's own
// findings (routes, payloads, barriers, the container model); they join
// the log's delivery faults in Delivery.
func judge(log *synch.Log, viols []string) Outcome {
	faults, cert, err := synch.Judge(log)
	out := Outcome{Synch: err, Cert: cert, SynchChecked: true}
	if viols = append(viols, faults...); len(viols) > 0 {
		n := len(viols)
		sort.Strings(viols)
		if len(viols) > 12 {
			viols = viols[:12]
		}
		out.Delivery = fmt.Errorf("oracle: %d violation(s):\n  %s", n, strings.Join(viols, "\n  "))
	}
	return out
}

// RunCase executes one fuzz workload and checks it against every
// oracle. A nil return means the run completed and every
// delivery-semantics and synchronizability property held; the error
// otherwise describes the first violation (see Outcome.Err).
func RunCase(c Case) error { return RunCaseOutcome(c).Err() }

// RunCaseTraced is RunCase with tr as the run's tracer: the
// observability layer's packet and span events go to tr while the
// oracles judge the run as usual. Used by the CI trace smoke job to
// prove trace export works on real fuzz traffic.
func RunCaseTraced(c Case, tr transport.Tracer) error {
	out, _ := runCaseLogged(c, tr)
	return out.Err()
}

// RunCaseOutcome executes one fuzz workload and returns the per-oracle
// verdicts separately, so callers (the mutation smoke test, the
// synchronizability sweep) can tell which oracle saw what.
func RunCaseOutcome(c Case) Outcome {
	out, _ := runCaseLogged(c, nil)
	return out
}

// runCaseLogged runs c with tracer tr (nil for none) and returns its
// verdicts plus the frozen event log (nil when the run died at the
// Runtime level), for the cross-validation replay's script comparison.
func runCaseLogged(c Case, tr transport.Tracer) (Outcome, *synch.Log) {
	if err := c.validate(); err != nil {
		return Outcome{Runtime: err}, nil
	}
	topo := c.Topo()
	o := newOracle(topo, c.Scheme, c.Phases)
	hooks := c.Mutant.hooks()
	cfg := transport.NewConfig(topo,
		transport.WithSeed(c.Seed),
		transport.WithTrace(tr),
		transport.WithWatchdogInterval(watchdogInterval),
	)
	if c.Jitter {
		cfg.Delay = jitterDelay(c.Seed, topo.WorldSize())
	}
	_, err := transport.Run(cfg, func(p *transport.Proc) error {
		return runRank(p, c, o, hooks)
	})
	if err != nil {
		return Outcome{Runtime: err}, nil
	}
	log := o.rec.Log()
	return judge(log, o.validate(log)), log
}

// jitterDelay builds a seeded per-source delay injector: every packet
// gains up to 50µs of extra virtual flight time, perturbing which
// packets are physically present at each poll or drain. Each source
// rank draws from its own generator (DelayFn runs on the sender's
// goroutine), so the injection is deterministic per rank.
func jitterDelay(seed int64, world int) transport.DelayFn {
	rngs := make([]*rand.Rand, world)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i)*104729 + 0x51ed))
	}
	return func(src, dst machine.Rank, tag transport.Tag, size int) float64 {
		return rngs[src].Float64() * 50e-6
	}
}

// runRank is the SPMD body of one rank: Phases rounds of seeded sends
// followed by a quiescence barrier, with the oracle logging every
// logical event on this rank's goroutine.
func runRank(p *transport.Proc, c Case, o *oracle, hooks *ygm.TestHooks) error {
	me := p.Rank()
	world := p.WorldSize()
	rng := rand.New(rand.NewSource(c.Seed*1000003 + int64(me)*8191 + 17))

	handler := func(s ygm.Sender, payload []byte) {
		m, ok := o.recordDelivery(me, payload)
		if !ok || m.bcast || m.ttl <= 0 {
			return
		}
		// Data-dependent spawn (the graph-traversal pattern): the child
		// inherits the parent's phase so barrier accounting stays sound.
		// Key, destination, and filler derive from the parent key alone —
		// never from a shared rng — so every variant and every delivery
		// interleaving of one case issues the identical command script.
		key := spawnKey(me, m.key)
		h := spawnHash(key)
		dst := machine.Rank(h % uint64(world))
		fill := int((h >> 32) % uint64(c.MaxPayload+1))
		o.recordSpawn(me, key, dst, m.key, m.phase)
		s.Send(dst, encodePayload(key, false, m.phase, m.ttl-1, dst, fill))
	}

	opts := []ygm.Option{
		ygm.WithScheme(c.Scheme),
		ygm.WithCapacity(c.Capacity),
		ygm.WithTap(o),
		ygm.WithHooks(hooks),
		ygm.WithExchange(c.Variant),
	}
	mb := ygm.New(p, handler, opts...)
	send, bcast := mb.Send, mb.Broadcast

	// WaitEmpty is the quiescence barrier on every variant (the sync
	// mailbox's sends only queue, so its WaitEmpty runs every round of
	// the phase); lazy cases optionally drive it through nonblocking
	// TestEmpty polling instead.
	barrier := func() error { mb.WaitEmpty(); return nil }
	if lazy, ok := mb.(*ygm.Mailbox); ok && c.TestEmptyBarrier {
		barrier = func() error {
			for spins := 0; ; spins++ {
				if lazy.TestEmpty() {
					return nil
				}
				if spins > testEmptySpinCap {
					return fmt.Errorf("simtest: rank %d: TestEmpty never converged", me)
				}
				// A real poller does external work between calls; yield so
				// peers sharing the OS thread progress, and unwind instead
				// of livelocking if one already died.
				p.AbortIfPeerFailed()
				p.Yield()
			}
		}
	}

	for phase := 0; phase < c.Phases; phase++ {
		for i := 0; i < c.Msgs; i++ {
			if c.BcastEvery > 0 && rng.Intn(c.BcastEvery) == 0 {
				key := o.recordSend(me, true, machine.Nil, phase)
				bcast(encodePayload(key, true, phase, 0, machine.Nil, rng.Intn(c.MaxPayload+1)))
				continue
			}
			dst := machine.Rank(rng.Intn(world))
			key := o.recordSend(me, false, dst, phase)
			send(dst, encodePayload(key, false, phase, c.TTL, dst, rng.Intn(c.MaxPayload+1)))
		}
		if err := barrier(); err != nil {
			return err
		}
		o.barrier(me, phase)
	}
	return nil
}
