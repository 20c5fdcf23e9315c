package transport

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/obs"
)

// Config describes one SPMD run.
type Config struct {
	// Topo is the simulated cluster shape.
	Topo machine.Topology
	// Model is the network cost model; zero value defaults to
	// netsim.Quartz().
	Model netsim.Model
	// Seed feeds the deterministic per-rank random sources.
	Seed int64
	// ComputeScale, when non-nil, returns a multiplier applied to every
	// Compute call of the given rank. Values > 1 model stragglers — the
	// imbalance scenario the paper's asynchronous design targets.
	ComputeScale func(r machine.Rank) float64
	// WatchdogInterval is the host-time polling cadence of the deadlock
	// watchdog, which aborts a run with a per-rank state dump when every
	// active rank is blocked in a receive with no traffic in flight.
	// Zero selects the default (250ms); a negative value disables the
	// watchdog entirely.
	WatchdogInterval time.Duration
	// Trace, when non-nil, receives every packet send and receive event
	// and every span and mark. It must be safe for concurrent use; see
	// Tracer. Nil disables tracing at the cost of one branch per event.
	Trace Tracer
	// Delay, when non-nil, adds extra virtual flight time to each packet
	// (fault injection for schedule exploration); see DelayFn.
	Delay DelayFn
	// Wire selects the transport backend below the inboxes: nil (the
	// default) is the virtual-time SimWire; LocalWire runs the same
	// in-process world in real time; TCPWire runs one rank per OS
	// process over localhost TCP. Real-time wires ignore Model, Delay,
	// and ComputeScale — their costs are real instructions and real wire
	// latency, not model charges. The wire also fixes the execution
	// model: a simulated world runs under the M:N rank scheduler, a
	// real-time one on direct goroutines (see Run). See the Wire
	// interface and DESIGN.md §13 and §15.
	Wire Wire
}

// World holds the shared state of a run: one inbox per rank plus the
// immutable configuration.
type World struct {
	topo    machine.Topology
	model   netsim.Model
	inboxes []*Inbox
	trace   Tracer
	// wire is the resolved transport backend (SimWire when Config.Wire
	// is nil); realtime caches wire.RealTime() and epoch anchors the
	// real-time rank clocks (host seconds since Start returned).
	wire     Wire
	realtime bool
	epoch    time.Time
	// wireMu guards wireErr, the first wire-level fault recorded by
	// WireFail (a peer connection reset, a failed remote write).
	wireMu  sync.Mutex
	wireErr error
	delay   DelayFn

	// pool is the shared backend of every owner's poolCache; see pool.go
	// for the ownership protocol.
	pool bufPool

	// active counts ranks whose SPMD body is still running; the deadlock
	// watchdog compares it against the number of blocked receivers.
	active atomic.Int64
	// poisoned is set once the watchdog declares deadlock.
	poisoned atomic.Bool
	// failed is set when any rank's body panics or returns an error.
	// Nonblocking progress loops consult it (via Proc.AbortIfPeerFailed)
	// so one rank's failure cannot livelock peers that never enter a
	// blocking receive — the deadlock watchdog only sees blocked ranks.
	failed atomic.Bool
	// dead collects per-rank state dumps, self-reported by each rank as
	// it unwinds from a poisoned receive (index = rank, written by the
	// owning rank only, read after all goroutines join).
	dead []*RankDeadState

	// sched is the M:N rank scheduler of a simulated world; nil on a
	// real-time wire, whose ranks run as direct goroutines.
	sched *scheduler
}

// RankReport is one rank's outcome. Time/Busy/Wait are virtual netsim
// seconds under a simulated wire and host seconds since the run epoch
// under a real-time wire (see Report.Wall), where Wait is the seconds
// parked on the inbox's wake channel and Busy the rest.
type RankReport struct {
	Rank  machine.Rank
	Time  float64 // final clock: virtual seconds, or wall seconds when Report.Wall
	Busy  float64
	Wait  float64
	Stats Stats
	// MaxInboxDepth is the high-water mark of this rank's receive queue.
	MaxInboxDepth int
	// Metrics is the rank's named-metric snapshot, taken as the rank's
	// goroutine unwinds; Report.Metrics merges all ranks' snapshots.
	Metrics obs.Snapshot
}

// Report aggregates a run. Under a distributed wire (TCPWire) it covers
// only the ranks this process hosted; each process assembles its own
// report.
type Report struct {
	Topo  machine.Topology
	Ranks []RankReport
	// Wall reports the time base of every duration in this report: false
	// means simulated netsim seconds (SimWire), true means measured host
	// seconds since the run epoch (real-time wires — LocalWire, TCPWire).
	Wall bool
	// Sched is the M:N rank scheduler's own metric snapshot (worker
	// utilization, grant/handoff/yield counts, ready-queue depth) on a
	// simulated wire; the zero Snapshot on a real-time wire, whose ranks
	// run unscheduled. Metrics() folds it in.
	Sched obs.Snapshot
	// Wire is the wire backend's own metric snapshot, taken after Finish
	// (TCPWire: frames, bytes and writes through its send queues, window
	// stalls); the zero Snapshot for a wire that counts nothing.
	// Metrics() folds it in.
	Wire obs.Snapshot
}

// Makespan returns the run's elapsed time: the maximum final clock over
// the reported ranks. Simulated seconds under SimWire; measured wall
// seconds when Wall is set (the per-rank clocks share one epoch, so the
// maximum is the real end-to-end duration across this process's ranks).
func (r *Report) Makespan() float64 {
	max := 0.0
	for _, rr := range r.Ranks {
		if rr.Time > max {
			max = rr.Time
		}
	}
	return max
}

// Totals sums traffic counters over all ranks.
func (r *Report) Totals() Totals {
	var t Totals
	for _, rr := range r.Ranks {
		t.LocalMsgs += rr.Stats.LocalMsgs
		t.LocalBytes += rr.Stats.LocalBytes
		t.RemoteMsgs += rr.Stats.RemoteMsgs
		t.RemoteBytes += rr.Stats.RemoteBytes
		t.DataLocalMsgs += rr.Stats.DataLocalMsgs
		t.DataLocalBytes += rr.Stats.DataLocalBytes
		t.DataRemoteMsgs += rr.Stats.DataRemoteMsgs
		t.DataRemoteBytes += rr.Stats.DataRemoteBytes
	}
	return t
}

// Utilization returns aggregate core utilization: total busy time over
// reported-rank count times makespan. This is the "core utilization"
// quantity the paper's abstract claims the asynchronous collectives
// improve. The ratio is well-defined in both time bases: under a
// real-time wire Busy is measured wall time outside parks on the inbox
// wake channel (a wait satisfied while spinning counts as busy), so the
// quotient is the fraction of host time the ranks spent not parked
// rather than a netsim model quantity.
func (r *Report) Utilization() float64 {
	ms := r.Makespan()
	if ms == 0 {
		return 1
	}
	busy := 0.0
	for _, rr := range r.Ranks {
		busy += rr.Busy
	}
	return busy / (ms * float64(len(r.Ranks)))
}

// Metrics merges every rank's named-metric snapshot into one run-wide
// view: counters add, gauges keep the largest high-water mark.
func (r *Report) Metrics() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(r.Ranks)+2)
	for i := range r.Ranks {
		snaps = append(snaps, r.Ranks[i].Metrics)
	}
	snaps = append(snaps, r.Sched, r.Wire)
	return obs.MergeSnapshots(snaps...)
}

// MaxInboxDepth returns the largest receive-queue depth any rank saw.
func (r *Report) MaxInboxDepth() int {
	max := 0
	for _, rr := range r.Ranks {
		if rr.MaxInboxDepth > max {
			max = rr.MaxInboxDepth
		}
	}
	return max
}

// Run executes body once per rank, each on its own goroutine, and blocks
// until every rank returns. Any error or panic from a rank aborts the
// report with a descriptive error (the remaining goroutines are still
// joined: SPMD bodies are expected to be deadlock-free on error paths
// only via their own collective discipline, so Run must only be handed
// bodies that return errors at globally consistent points).
//
// The wire picks the execution model. A simulated world multiplexes its
// ranks over runtime.GOMAXPROCS(0) worker tokens of the M:N scheduler,
// so a world of any size keeps only as many ranks runnable as the host
// has cores. A real-time wire runs every rank directly on its own
// goroutine: its clock is the host's, and token handoffs would be
// measured as cost (DESIGN.md §15).
func Run(cfg Config, body func(p *Proc) error) (*Report, error) {
	return run(cfg, body, runtime.GOMAXPROCS(0))
}

// run is Run with the scheduler's token count as a parameter, which a
// real-time wire ignores.
func run(cfg Config, body func(p *Proc) error, tokens int) (*Report, error) {
	if cfg.Topo.WorldSize() == 0 {
		return nil, fmt.Errorf("transport: empty topology")
	}
	if cfg.Model == (netsim.Model{}) {
		cfg.Model = netsim.Quartz()
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	size := cfg.Topo.WorldSize()
	wire := cfg.Wire
	if wire == nil {
		wire = SimWire{}
	}
	w := &World{
		topo:     cfg.Topo,
		model:    cfg.Model,
		trace:    cfg.Trace,
		delay:    cfg.Delay,
		wire:     wire,
		realtime: wire.RealTime(),
	}
	w.pool.init()
	if !w.realtime {
		w.sched = newScheduler(size, tokens)
	}
	w.inboxes = make([]*Inbox, size)
	for i := range w.inboxes {
		ib := &Inbox{}
		ib.self = machine.Rank(i)
		if w.sched != nil {
			ib.sched = w.sched
			ib.wake = w.sched.gates[i]
		} else {
			ib.wake = make(chan struct{}, 1)
		}
		w.inboxes[i] = ib
	}
	w.dead = make([]*RankDeadState, size)
	// local is the set of ranks this process hosts (nil from the wire
	// means all of them); distributed wires run one subset per process.
	local := wire.LocalRanks(cfg.Topo)
	if local == nil {
		local = make([]machine.Rank, size)
		for i := range local {
			local[i] = machine.Rank(i)
		}
	}
	for _, r := range local {
		if !cfg.Topo.Valid(r) {
			return nil, fmt.Errorf("transport: wire %s claims invalid local rank %d", wire.Name(), r)
		}
	}
	w.active.Store(int64(len(local)))
	// A distributed wire performs its rendezvous/handshake here, before
	// any rank runs; the epoch anchoring real-time rank clocks is taken
	// after it returns so every process starts its clocks post-handshake.
	if err := wire.Start(w); err != nil {
		return nil, fmt.Errorf("transport: wire %s: %w", wire.Name(), err)
	}
	// A wire that spawns stamping goroutines (TCP readers) sets the epoch
	// itself before they start; otherwise the clocks anchor here.
	if w.epoch.IsZero() {
		w.epoch = hostNow()
	}
	// The quiet-world deadlock heuristic is only sound when every rank is
	// visible to this process's watchdog: under a distributed wire a
	// locally-blocked rank may be waiting on a remote peer the watchdog
	// cannot observe, so detection is left to connection-fault surfacing
	// (WireFail) instead.
	if cfg.WatchdogInterval >= 0 && len(local) == size {
		interval := cfg.WatchdogInterval
		if interval == 0 {
			interval = defaultWatchdogInterval
		}
		stop := make(chan struct{})
		defer close(stop)
		go w.watchdog(interval, stop)
	}

	report := &Report{Topo: cfg.Topo, Ranks: make([]RankReport, size), Wall: w.realtime}
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(len(local))
	for _, i := range local {
		go func(r machine.Rank) {
			defer wg.Done()
			defer w.active.Add(-1)
			p := &Proc{
				world:        w,
				rank:         r,
				rng:          rand.New(newRngSource(cfg.Seed*1000003 + int64(r))),
				computeScale: 1,
				metrics:      obs.NewRegistry(),
				rec:          obs.NewRecorder(obs.DefaultRecorderSize),
			}
			p.cache.pool = &w.pool
			if w.realtime {
				p.rt = &rtClock{epoch: w.epoch}
				w.inboxes[r].rt = p.rt
			}
			if cfg.ComputeScale != nil {
				if s := cfg.ComputeScale(r); s > 0 {
					p.computeScale = s
				}
			}
			// Under the M:N scheduler the rank now waits for a worker
			// token (setup above ran unthrottled — it is pure
			// allocation). The deferred exit releases the token however
			// the body unwinds; it runs after the bookkeeping defer
			// below, so report assembly still holds the token.
			if w.sched != nil {
				w.sched.acquire(r)
				defer w.sched.exit(r)
			}
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(rankDeadlocked); ok {
						// Orderly unwind from a poisoned receive; the
						// aggregated DeadlockError is assembled after
						// all ranks join.
						errs[r] = errRankDeadlocked
					} else {
						errs[r] = fmt.Errorf("transport: rank %d panicked: %v\n%s", r, rec, debug.Stack())
						w.failed.Store(true)
						// A dead rank usually deadlocks its peers (they wait
						// on its messages); surface the cause immediately
						// rather than only after every goroutine unwinds.
						fmt.Fprintf(os.Stderr, "transport: rank %d died: %v\n", r, rec)
						if evs := p.rec.Snapshot(); len(evs) > 0 {
							fmt.Fprintf(os.Stderr, "transport: rank %d recent events:\n%s",
								r, obs.FormatEvents(evs, "  "))
						}
					}
				} else if errs[r] != nil {
					w.failed.Store(true)
				}
				pushes, wakeups, suppressed := w.inboxes[r].WakeStats()
				p.metrics.Counter("inbox.pushes").Add(pushes)
				p.metrics.Counter("inbox.wakeups").Add(wakeups)
				p.metrics.Counter("inbox.wakeups_suppressed").Add(suppressed)
				spinHits, parks := w.inboxes[r].SpinParkStats()
				p.metrics.Counter("inbox.spin_hits").Add(spinHits)
				p.metrics.Counter("inbox.parks").Add(parks)
				p.metrics.Counter("transport.pool.shared_ops").Add(p.cache.shared)
				now, busy, wait := p.clocks()
				report.Ranks[r] = RankReport{
					Rank:          r,
					Time:          now,
					Busy:          busy,
					Wait:          wait,
					Stats:         p.stats,
					MaxInboxDepth: w.inboxes[r].MaxDepth(),
					Metrics:       p.metrics.Snapshot(),
				}
			}()
			errs[r] = body(p)
			if errs[r] == nil {
				w.wire.Flush(p)
			}
		}(i)
	}
	wg.Wait()
	if w.sched != nil {
		report.Sched = w.sched.snapshot()
	}
	ferr := w.wire.Finish()
	if m, ok := w.wire.(interface{ Metrics() obs.Snapshot }); ok {
		report.Wire = m.Metrics()
	}
	if len(local) < size {
		// Distributed run: compact the report to the ranks this process
		// hosted so aggregate quantities (Utilization's rank count above
		// all) stay meaningful.
		ranks := make([]RankReport, 0, len(local))
		for _, r := range local {
			ranks = append(ranks, report.Ranks[r])
		}
		report.Ranks = ranks
	}
	// A rank that died from a real panic usually strands its peers in
	// blocking receives, which the watchdog then resolves by poisoning
	// them — so prefer reporting the root-cause panic over the derived
	// deadlock when both are present.
	for _, err := range errs {
		if err != nil && err != errRankDeadlocked {
			return report, err
		}
	}
	if w.poisoned.Load() {
		return report, w.deadlockError()
	}
	// A wire fault (recorded via WireFail) explains ranks that unwound
	// through the poisoned-receive path without a watchdog verdict.
	w.wireMu.Lock()
	werr := w.wireErr
	w.wireMu.Unlock()
	if werr != nil {
		return report, fmt.Errorf("transport: wire %s: %w", w.wire.Name(), werr)
	}
	if ferr != nil {
		return report, fmt.Errorf("transport: wire %s: finish: %w", w.wire.Name(), ferr)
	}
	// The packet ledger: a run that finished cleanly owes the pool every
	// packet it received, and, when this process hosted the whole world,
	// received every packet it sent. A failed run returned above, since
	// it may have unwound holding packets or with packets in flight.
	var sent, received uint64
	for _, rr := range report.Ranks {
		if rr.Stats.Recycles != rr.Stats.RecvMsgs {
			return report, &PacketLeakError{Rank: rr.Rank, Recycled: rr.Stats.Recycles, Received: rr.Stats.RecvMsgs}
		}
		sent += rr.Stats.LocalMsgs + rr.Stats.RemoteMsgs
		received += rr.Stats.RecvMsgs
	}
	if len(local) == size && sent != received {
		return report, &PacketLossError{Sent: sent, Received: received}
	}
	return report, nil
}

// PacketLossError reports a whole-world run whose body returned cleanly
// while the ranks had not received exactly the packets they sent: a
// packet lost in flight, or one delivered twice.
type PacketLossError struct {
	Sent     uint64
	Received uint64
}

func (e *PacketLossError) Error() string {
	return fmt.Sprintf("transport: packet ledger: %d packets sent, %d received", e.Sent, e.Received)
}

// PacketLeakError reports a run whose body returned cleanly while a rank
// had not recycled exactly the packets it received: a receive path that
// drops a packet without Recycle (a leak), or one that recycles twice.
// Run names the lowest such rank.
type PacketLeakError struct {
	Rank     machine.Rank
	Recycled uint64
	Received uint64
}

func (e *PacketLeakError) Error() string {
	return fmt.Sprintf("transport: packet ledger: rank %d recycled %d of %d received packets", e.Rank, e.Recycled, e.Received)
}

// errRankDeadlocked marks a rank unwound by the deadlock watchdog; Run
// replaces it with the aggregated DeadlockError.
var errRankDeadlocked = fmt.Errorf("transport: rank unwound by deadlock watchdog")
