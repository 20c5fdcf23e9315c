package transport

import (
	"sync"
	"time"

	"ygm/internal/machine"
	"ygm/internal/obs"
)

// The M:N rank scheduler multiplexes P virtual ranks over a small pool
// of worker tokens (one per host core by default). Every rank still has
// its own goroutine — Go cannot capture an arbitrary blocked SPMD body
// as a heap continuation — but at most `workers` of them hold a token
// and are runnable at any instant; the rest are parked a few hundred
// bytes deep in the scheduler, which is what keeps a 65k-rank world
// from thrashing the host scheduler with 65k simultaneously runnable
// goroutines. The parked goroutine IS the rank's continuation: granting
// the token resumes it exactly where it blocked.
//
// Readiness is driven by the inbox park protocol from PR 5: a consumer
// that loses the pstate CAS race used to receive a channel token from
// the producer; under the scheduler the producer instead calls ready(),
// which hands the destination rank a worker token directly (if one is
// free) or appends it to a run queue. Tokens move rank→rank on park —
// a blocking receive donates its slot to the next runnable rank — so a
// world makes progress with exactly min(P, workers) goroutines hot.
//
// Run queues are sharded by rank (home shard = rank & mask) purely to
// spread queue traffic; a releasing rank prefers its home shard and
// scans the others ("stealing") when it is empty, which keeps dispatch
// O(shards) worst case and O(1) typical.
const schedShards = 8

// Per-rank scheduler states. A rank's state only changes under the
// scheduler mutex.
const (
	// rsWaiting: blocked inside acquire/park with no token and no run
	// queue entry; the next ready() will grant or enqueue it. Also the
	// initial state (zero value) before acquire.
	rsWaiting int8 = iota
	// rsRunning: holds a worker token (possibly buffered in its gate).
	rsRunning
	// rsQueued: sits in a run queue awaiting a token grant.
	rsQueued
	// rsExited: the rank's body returned and its token was released.
	rsExited
)

// rankQueue is one FIFO run-queue shard.
type rankQueue struct {
	buf  []machine.Rank
	head int
}

func (q *rankQueue) push(r machine.Rank) {
	if q.head > 0 && q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	q.buf = append(q.buf, r)
}

func (q *rankQueue) pop() (machine.Rank, bool) {
	if q.head == len(q.buf) {
		return -1, false
	}
	r := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return r, true
}

// scheduler is the M:N rank scheduler for one World. All state is
// guarded by mu; the per-rank gates are the only cross-section — a gate
// send under mu never blocks because the state machine guarantees at
// most one outstanding grant per rank (a rank must consume its grant
// and block again before it can be granted again).
type scheduler struct {
	workers int

	mu     sync.Mutex
	avail  int // free worker tokens
	busy   int // tokens held by (or granted to) running ranks
	shards [schedShards]rankQueue
	queued int // total run-queue entries
	scan   int // rotating dispatch pointer (see popLocked)

	// state/wakeFlag/discard implement the rank state machine. wakeFlag
	// buffers a ready() that arrived while the rank still held its token
	// (the window between the consumer publishing pParked and actually
	// calling park); the next park consumes it and keeps the token —
	// the scheduler's equivalent of the direct-mode buffered channel
	// token. discard counts parks the consumer retracted after the
	// producer had already won the pstate CAS: the producer's in-flight
	// ready() must be cancelled, whichever order the two arrive in.
	state    []int8
	wakeFlag []bool
	retract  []int32

	// gates[r] delivers worker-token grants to rank r's goroutine.
	// Capacity 1: a grant may be issued before the rank has reached its
	// gate receive (it enqueues under mu, then receives outside it).
	gates []chan struct{}

	// inQueue backs the ygmcheck double-enqueue audit; nil in default
	// builds.
	inQueue []bool

	// Metrics, updated under mu. busyInt integrates busy-worker-seconds
	// (host seconds since epoch) for the worker-utilization gauge.
	dispatches   uint64 // total token grants
	directGrants uint64 // grants straight from ready() (no queue wait)
	handoffs     uint64 // tokens passed rank→rank on park/exit/yield
	steals       uint64 // handoffs dispatched from a non-home shard
	yields       uint64 // voluntary token donations (Proc.Yield)
	discards     uint64 // retracted parks
	readyHWM     int
	busyHWM      int
	busyInt      float64
	lastT        float64
	epoch        time.Time
}

// newScheduler returns a scheduler for a world of `world` ranks over
// `workers` tokens.
func newScheduler(world, workers int) *scheduler {
	if workers < 1 {
		workers = 1
	}
	if workers > world {
		workers = world
	}
	s := &scheduler{
		workers:  workers,
		avail:    workers,
		state:    make([]int8, world),
		wakeFlag: make([]bool, world),
		retract:  make([]int32, world),
		gates:    make([]chan struct{}, world),
	}
	for i := range s.gates {
		s.gates[i] = make(chan struct{}, 1)
	}
	if ygmcheckEnabled {
		s.inQueue = make([]bool, world)
	}
	s.epoch = hostNow()
	return s
}

func schedHome(r machine.Rank) int { return int(r) & (schedShards - 1) }

// tickBusyLocked integrates the busy-worker level up to now and applies
// delta. Called before every busy transition so the worker-utilization
// integral is exact.
func (s *scheduler) tickBusyLocked(delta int) {
	now := hostSince(s.epoch)
	if now > s.lastT {
		s.busyInt += float64(s.busy) * (now - s.lastT)
		s.lastT = now
	}
	s.busy += delta
	if s.busy > s.busyHWM {
		s.busyHWM = s.busy
	}
}

// enqueueLocked appends r to its home run-queue shard.
func (s *scheduler) enqueueLocked(r machine.Rank) {
	s.checkSchedEnqueue(r)
	s.state[r] = rsQueued
	s.shards[schedHome(r)].push(r)
	s.queued++
	if s.queued > s.readyHWM {
		s.readyHWM = s.queued
	}
}

// popLocked removes the next queued rank. The scan starts one past the
// shard served by the previous dispatch and rotates — NOT at the
// releaser's home shard. Home-first scanning looks cheaper but starves:
// two ranks ping-ponging Proc.Yield through a shared home shard would
// keep that shard non-empty forever and never reach ready ranks queued
// in the other shards. The rotating pointer serves every shard within
// schedShards dispatches, and each shard is itself FIFO, so any queued
// rank is granted within a bounded number of releases. Returns -1 when
// every shard is empty; the bool reports a cross-shard dispatch
// relative to the releaser's home (the "steal" metric).
func (s *scheduler) popLocked(home int) (machine.Rank, bool) {
	for i := 0; i < schedShards; i++ {
		idx := (s.scan + i) & (schedShards - 1)
		if r, ok := s.shards[idx].pop(); ok {
			s.queued--
			s.scan = idx + 1
			s.checkSchedDequeue(r)
			return r, idx != home
		}
	}
	return -1, false
}

// grantLocked hands a token to queued-or-waiting rank r: flips it to
// running and posts its gate. The caller has already accounted the
// token (busy unchanged on handoff, avail--/busy++ on a fresh grant).
func (s *scheduler) grantLocked(r machine.Rank) {
	s.state[r] = rsRunning
	s.dispatches++
	s.gates[r] <- struct{}{}
}

// releaseLocked gives up the caller's token: hand it to the next queued
// rank if any (the token stays busy — that is the M:N handoff), else
// return it to the free pool.
func (s *scheduler) releaseLocked(home int) {
	if r, stolen := s.popLocked(home); r >= 0 {
		s.handoffs++
		if stolen {
			s.steals++
		}
		s.grantLocked(r)
		return
	}
	s.tickBusyLocked(-1)
	s.avail++
}

// acquire blocks until rank r holds a worker token. Called once per
// rank before its SPMD body runs.
func (s *scheduler) acquire(r machine.Rank) {
	s.mu.Lock()
	if s.avail > 0 {
		s.avail--
		s.tickBusyLocked(+1)
		s.state[r] = rsRunning
		s.checkSchedTokens()
		s.mu.Unlock()
		return
	}
	s.enqueueLocked(r)
	s.checkSchedTokens()
	s.mu.Unlock()
	<-s.gates[r]
}

// park releases rank r's token and blocks until a producer's ready()
// grants it a new one. The caller must have published pParked on its
// inbox first — that ordering is what guarantees a ready() is coming.
// If one already arrived (wakeFlag), park keeps the token and returns
// immediately: the scheduler analogue of the buffered channel token.
func (s *scheduler) park(r machine.Rank) {
	s.mu.Lock()
	if s.wakeFlag[r] {
		s.wakeFlag[r] = false
		s.checkSchedTokens()
		s.mu.Unlock()
		return
	}
	s.state[r] = rsWaiting
	s.releaseLocked(schedHome(r))
	s.checkSchedTokens()
	s.mu.Unlock()
	<-s.gates[r]
}

// ready is the producer-side wake: called by whoever wins a pstate
// pParked→pIdle CAS on rank r's inbox (a Push, or the watchdog's
// poison). Exactly one ready is issued per park episode; the state
// machine routes it to a grant, a queue entry, a kept token
// (wakeFlag), or a cancelled retraction (discard).
func (s *scheduler) ready(r machine.Rank) {
	s.mu.Lock()
	if s.retract[r] > 0 {
		// The consumer retracted the park this ready belongs to (its
		// pre-sleep recheck found the data); nothing to wake.
		s.retract[r]--
		s.mu.Unlock()
		return
	}
	switch s.state[r] {
	case rsWaiting:
		if s.avail > 0 {
			s.avail--
			s.tickBusyLocked(+1)
			s.directGrants++
			s.grantLocked(r)
		} else {
			s.enqueueLocked(r)
		}
	case rsRunning:
		// The consumer published pParked but has not released its token
		// yet (or already self-served). It keeps the token at its next
		// park.
		s.wakeFlag[r] = true
	case rsQueued:
		// Unreachable by the CAS protocol (one ready per park episode);
		// tolerate it as a buffered wake in default builds.
		s.checkSchedDoubleReady(r)
		s.wakeFlag[r] = true
	case rsExited:
		// A late ready for a rank that already finished; drop it.
	}
	s.checkSchedTokens()
	s.mu.Unlock()
}

// discard cancels the ready() owed to rank r after the consumer
// retracted a published park: consume the buffered wake if it already
// landed, otherwise leave a credit for when it does.
func (s *scheduler) discard(r machine.Rank) {
	s.mu.Lock()
	s.discards++
	if s.wakeFlag[r] {
		s.wakeFlag[r] = false
	} else {
		s.retract[r]++
	}
	s.mu.Unlock()
}

// forceWake unsticks rank r if it is waiting with no ready in flight —
// the state a lost-wakeup bug leaves behind. Only the watchdog's poison
// path calls it, so a poisoned run always unwinds into a DeadlockError
// instead of hanging on a stranded gate. The discard==0 guard keeps it
// from double-granting a rank whose (late) ready is still coming.
func (s *scheduler) forceWake(r machine.Rank) {
	s.mu.Lock()
	if s.state[r] == rsWaiting && s.retract[r] == 0 {
		if s.avail > 0 {
			s.avail--
			s.tickBusyLocked(+1)
			s.grantLocked(r)
		} else {
			s.enqueueLocked(r)
		}
	}
	s.checkSchedTokens()
	s.mu.Unlock()
}

// yield donates the caller's token to a queued rank and re-queues the
// caller behind it. Returns false (doing nothing) when no rank is
// waiting for a worker — the caller should fall back to a plain
// runtime.Gosched. Nonblocking poll loops must yield this way: a
// token-holding spinner would otherwise starve the very ranks whose
// messages it polls for.
func (s *scheduler) yield(r machine.Rank) bool {
	s.mu.Lock()
	if s.queued == 0 {
		s.mu.Unlock()
		return false
	}
	s.yields++
	s.releaseLocked(schedHome(r))
	s.enqueueLocked(r)
	s.checkSchedTokens()
	s.mu.Unlock()
	<-s.gates[r]
	return true
}

// exit releases rank r's token for good as its goroutine unwinds
// (normal return, error, panic, or deadlock poison — it runs deferred).
func (s *scheduler) exit(r machine.Rank) {
	s.mu.Lock()
	s.state[r] = rsExited
	s.wakeFlag[r] = false
	s.releaseLocked(schedHome(r))
	s.checkSchedTokens()
	s.mu.Unlock()
}

// snapshot freezes the scheduler's metrics: grant/handoff/steal/yield
// counters, ready-queue and busy-worker high-water marks, and the
// worker-utilization integral (busy-worker-seconds over total
// worker-seconds, host time) — the evidence that the pool stays hot.
func (s *scheduler) snapshot() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tickBusyLocked(0)
	reg := obs.NewRegistry()
	reg.Counter("sched.dispatches").Add(s.dispatches)
	reg.Counter("sched.direct_grants").Add(s.directGrants)
	reg.Counter("sched.handoffs").Add(s.handoffs)
	reg.Counter("sched.steals").Add(s.steals)
	reg.Counter("sched.yields").Add(s.yields)
	reg.Counter("sched.park_retractions").Add(s.discards)
	reg.Gauge("sched.workers").Set(float64(s.workers))
	reg.Gauge("sched.ready_depth_hwm").Set(float64(s.readyHWM))
	reg.Gauge("sched.workers_busy_hwm").Set(float64(s.busyHWM))
	if elapsed := s.lastT; elapsed > 0 {
		reg.Gauge("sched.worker_utilization").Set(s.busyInt / (elapsed * float64(s.workers)))
	}
	return reg.Snapshot()
}
