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
// The tokens are a semaphore driven by the inbox park protocol. A rank
// about to park releases its token first — handing it to the head of
// the run queue if anyone is queued — and only then publishes its
// parked state, so the producer that later wins the unpark CAS always
// finds the rank waiting: its ready() grants the rank a free token
// through the rank's wake channel, or queues it behind the ranks
// already waiting for one. A world therefore makes progress with
// exactly min(P, workers) goroutines hot. The run queue is one FIFO, so
// every queued rank is granted within `queue length` releases whoever
// releases.

// Per-rank scheduler states. A rank's state only changes under the
// scheduler mutex.
const (
	// rsWaiting: holds no token and has none coming — released before a
	// park, or not yet started. The next ready() grants or queues it.
	rsWaiting int8 = iota
	// rsRunning: holds a worker token (possibly still posted on its gate).
	rsRunning
	// rsQueued: sits on the run queue awaiting a token grant.
	rsQueued
	// rsExited: the rank's body returned and its token was released.
	rsExited
)

// rankQueue is the FIFO run queue: a ring with one slot per rank, which
// is enough because a rank is never queued twice.
type rankQueue struct {
	buf     []machine.Rank
	head, n int
}

func (q *rankQueue) len() int { return q.n }

func (q *rankQueue) push(r machine.Rank) {
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

func (q *rankQueue) pop() (machine.Rank, bool) {
	if q.n == 0 {
		return -1, false
	}
	r := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r, true
}

// scheduler is the M:N rank scheduler for one World. All state is
// guarded by mu; the per-rank gates are the only cross-section — a gate
// send under mu never blocks because a grant only goes to a waiting or
// queued rank, and a rank consumes its grant before it can wait or
// queue again.
type scheduler struct {
	workers int

	mu    sync.Mutex
	avail int // free worker tokens
	busy  int // tokens held by (or granted to) running ranks
	queue rankQueue
	state []int8

	// gates[r] delivers worker-token grants to rank r's goroutine. It is
	// also rank r's inbox wake channel: under the scheduler the only
	// wake a parked rank receives is its grant. Capacity 1: a grant may
	// be issued before the rank has reached its gate receive.
	gates []chan struct{}

	// Metrics, updated under mu. busyInt integrates busy-worker-seconds
	// (host seconds since epoch) for the worker-utilization gauge.
	dispatches   uint64 // total token grants
	directGrants uint64 // grants straight from ready() (no queue wait)
	handoffs     uint64 // tokens passed rank→rank on park/exit/yield
	yields       uint64 // voluntary token donations (Proc.Yield)
	readyHWM     int
	busyHWM      int
	busyInt      float64
	lastT        float64
	epoch        time.Time
}

// newScheduler returns a scheduler for a world of `world` ranks over
// `workers` tokens.
func newScheduler(world, workers int) *scheduler {
	if workers > world {
		workers = world
	}
	s := &scheduler{
		workers: workers,
		avail:   workers,
		queue:   rankQueue{buf: make([]machine.Rank, world)},
		state:   make([]int8, world),
		gates:   make([]chan struct{}, world),
	}
	for i := range s.gates {
		s.gates[i] = make(chan struct{}, 1)
	}
	s.epoch = hostNow()
	return s
}

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

// enqueueLocked appends r to the run queue.
func (s *scheduler) enqueueLocked(r machine.Rank) {
	s.checkSchedEnqueue(r)
	s.state[r] = rsQueued
	s.queue.push(r)
	if n := s.queue.len(); n > s.readyHWM {
		s.readyHWM = n
	}
}

// grantLocked hands a token to waiting-or-queued rank r: flips it to
// running and posts its gate. The caller has already accounted the
// token (busy unchanged on handoff, avail--/busy++ on a fresh grant).
func (s *scheduler) grantLocked(r machine.Rank) {
	s.state[r] = rsRunning
	s.dispatches++
	s.gates[r] <- struct{}{}
}

// releaseLocked gives up the caller's token: hand it to the head of the
// run queue if any (the token stays busy — that is the M:N handoff),
// else return it to the free pool.
func (s *scheduler) releaseLocked() {
	if r, ok := s.queue.pop(); ok {
		s.checkSchedDequeue(r)
		s.handoffs++
		s.grantLocked(r)
		return
	}
	s.tickBusyLocked(-1)
	s.avail++
}

// acquire blocks until rank r holds a worker token. A nil scheduler
// (the direct model) has none to hand out. Called before a rank's SPMD
// body runs and when the rank takes back a park nobody woke. The
// forced wake of a poisoned world may already have granted or queued r
// by then; acquire takes that as its grant.
func (s *scheduler) acquire(r machine.Rank) {
	if s == nil {
		return
	}
	s.mu.Lock()
	switch {
	case s.state[r] != rsWaiting:
	case s.avail > 0:
		s.avail--
		s.tickBusyLocked(+1)
		s.state[r] = rsRunning
		s.checkSchedTokens()
		s.mu.Unlock()
		return
	default:
		s.enqueueLocked(r)
	}
	s.checkSchedTokens()
	s.mu.Unlock()
	<-s.gates[r]
}

// release gives up rank r's token ahead of a park. The rank then holds
// none until a ready() grants one through its gate, or until it takes
// the park back and calls acquire. A nil scheduler does nothing.
func (s *scheduler) release(r machine.Rank) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.state[r] = rsWaiting
	s.releaseLocked()
	s.checkSchedTokens()
	s.mu.Unlock()
}

// ready is the producer-side wake, issued by whoever wins a
// pParked→pIdle CAS on rank r's inbox (a Push, or the watchdog's
// poison). The rank released its token before it published the park,
// so ready finds it waiting and grants it a free token or queues it for
// the next release. It reports whether r was waiting: only the forced
// wake of a poisoned world can find it otherwise, and then the rank
// already has a grant or is about to take one, so there is nothing to
// do.
func (s *scheduler) ready(r machine.Rank) bool {
	s.mu.Lock()
	if s.state[r] != rsWaiting {
		s.mu.Unlock()
		return false
	}
	if s.avail > 0 {
		s.avail--
		s.tickBusyLocked(+1)
		s.directGrants++
		s.grantLocked(r)
	} else {
		s.enqueueLocked(r)
	}
	s.checkSchedTokens()
	s.mu.Unlock()
	return true
}

// yield donates the caller's token to the head of the run queue and
// re-queues the caller at its tail. Returns false (doing nothing) when
// no rank is waiting for a worker — the caller should fall back to a
// plain runtime.Gosched. Nonblocking poll loops must yield this way: a
// token-holding spinner would otherwise starve the very ranks whose
// messages it polls for.
func (s *scheduler) yield(r machine.Rank) bool {
	s.mu.Lock()
	if s.queue.len() == 0 {
		s.mu.Unlock()
		return false
	}
	s.yields++
	s.releaseLocked()
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
	s.releaseLocked()
	s.checkSchedTokens()
	s.mu.Unlock()
}

// snapshot freezes the scheduler's metrics: grant/handoff/yield
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
	reg.Counter("sched.yields").Add(s.yields)
	reg.Gauge("sched.workers").Set(float64(s.workers))
	reg.Gauge("sched.ready_depth_hwm").Set(float64(s.readyHWM))
	reg.Gauge("sched.workers_busy_hwm").Set(float64(s.busyHWM))
	if elapsed := s.lastT; elapsed > 0 {
		reg.Gauge("sched.worker_utilization").Set(s.busyInt / (elapsed * float64(s.workers)))
	}
	return reg.Snapshot()
}
