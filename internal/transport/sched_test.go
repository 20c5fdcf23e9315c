package transport

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"ygm/internal/machine"
)

// treeReduce gathers one message per rank up a binomial tree to rank 0:
// every non-root rank sends exactly one packet to its parent after
// collecting one from each of its subtree children, so every Recv has
// exactly one packet it can match.
func treeReduce(p *Proc, tag Tag) {
	n := p.WorldSize()
	r := int(p.Rank())
	top := 1
	for top < n {
		top <<= 1
	}
	for m := 1; m < top; m <<= 1 {
		if r&m != 0 {
			p.Send(machine.Rank(r-m), tag, []byte{byte(r)})
			return
		}
		if c := r | m; c < n {
			p.Recycle(p.Recv(tag))
		}
	}
}

// treeBcast broadcasts from rank 0 down the same binomial tree; every
// non-root rank receives exactly one packet under tag.
func treeBcast(p *Proc, tag Tag) {
	n := p.WorldSize()
	r := int(p.Rank())
	top := 1
	for top < n {
		top <<= 1
	}
	high := top
	if r != 0 {
		p.Recycle(p.Recv(tag))
		high = r & -r
	}
	for m := high >> 1; m >= 1; m >>= 1 {
		if c := r | m; c < n && c > r {
			p.Send(machine.Rank(c), tag, []byte{byte(r)})
		}
	}
}

// treeBarrier is a full synchronization: reduce to the root, then
// broadcast the release.
func treeBarrier(p *Proc, tag Tag) {
	treeReduce(p, tag)
	treeBcast(p, tag+1)
}

// runWithTimeout guards scheduler tests against livelock regressions:
// a wedged run fails the test with a descriptive message instead of
// tripping the package-level test timeout with no context.
func runWithTimeout(t *testing.T, d time.Duration, cfg Config, body func(p *Proc) error) *Report {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	ch := make(chan result, 1)
	go func() {
		rep, err := Run(cfg, body)
		ch <- result{rep, err}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatalf("run failed: %v", res.err)
		}
		return res.rep
	case <-time.After(d):
		t.Fatalf("run wedged: no completion within %v", d)
		return nil
	}
}

// TestSchedulerCompletesCollectives runs barrier and neighbor-exchange
// traffic over far fewer worker tokens than ranks and checks the
// scheduler actually carried the run (token grants flowed through the
// gates) and its accounting is self-consistent.
func TestSchedulerCompletesCollectives(t *testing.T) {
	const rounds = 3
	cfg := NewConfig(machine.New(4, 8), WithSeed(5), WithWorkers(2))
	rep := runWithTimeout(t, time.Minute, cfg, func(p *Proc) error {
		n := p.WorldSize()
		for k := 0; k < rounds; k++ {
			tag := TagUser + Tag(4*k)
			p.Send(machine.Rank((int(p.Rank())+1+k)%n), tag, []byte{byte(k)})
			p.Recycle(p.Recv(tag))
			treeBarrier(p, tag+1)
		}
		return nil
	})
	m := rep.Metrics()
	if got := m.Counter("sched.dispatches"); got == 0 {
		t.Fatalf("sched.dispatches = 0: scheduler never granted a token")
	}
	if got := m.Gauges["sched.workers"].Last; got != 2 {
		t.Fatalf("sched.workers gauge = %v, want 2", got)
	}
	if hwm := m.Gauges["sched.workers_busy_hwm"].Max; hwm > 2 {
		t.Fatalf("busy high-water mark %v exceeds the 2-token pool", hwm)
	}
}

// TestSchedulerMakespanMatchesDirect pins virtual-time equivalence: the
// M:N scheduler multiplexes host execution but must not perturb the
// simulation's outcome. The workload is built so every Recv has exactly
// one matching packet (unique tag per edge per round), which makes the
// simulated makespan a pure function of the message DAG — identical
// under any host interleaving, hence byte-identical between the
// scheduled and direct models. The 64-rank world runs direct under the
// automatic policy.
func TestSchedulerMakespanMatchesDirect(t *testing.T) {
	body := func(p *Proc) error {
		n := p.WorldSize()
		for k := 0; k < 4; k++ {
			tag := TagUser + Tag(4*k)
			p.Send(machine.Rank((int(p.Rank())+1+k)%n), tag, []byte("payload"))
			p.Recycle(p.Recv(tag))
			treeBcast(p, tag+1)
		}
		return nil
	}
	topo := machine.New(8, 8)
	direct := runWithTimeout(t, time.Minute, NewConfig(topo, WithSeed(7)), body)
	sched := runWithTimeout(t, time.Minute, NewConfig(topo, WithSeed(7), WithWorkers(3)), body)
	if direct.Makespan() != sched.Makespan() {
		t.Fatalf("makespan diverged: direct %.12g, scheduled %.12g",
			direct.Makespan(), sched.Makespan())
	}
	if dt, st := direct.Totals(), sched.Totals(); dt != st {
		t.Fatalf("traffic totals diverged:\n  direct    %+v\n  scheduled %+v", dt, st)
	}
}

// TestYieldSingleWorkerNoLivelock is the regression test for
// token-holding spinners: with exactly one worker token, a rank polling
// in a nonblocking loop must donate its token via Proc.Yield or the
// senders it is polling for can never run. Repeated runs cover both
// orderings of which rank wins the token first.
func TestYieldSingleWorkerNoLivelock(t *testing.T) {
	for i := 0; i < 10; i++ {
		cfg := NewConfig(machine.New(1, 8), WithSeed(int64(i)), WithWorkers(1))
		rep := runWithTimeout(t, time.Minute, cfg, func(p *Proc) error {
			if p.Rank() != 0 {
				p.Send(0, TagUser, []byte{byte(p.Rank())})
				return nil
			}
			for got := 0; got < p.WorldSize()-1; {
				if batch := p.DrainBatch(TagUser, nil); len(batch) > 0 {
					for _, pkt := range batch {
						p.Absorb(pkt)
						p.Recycle(pkt)
					}
					got += len(batch)
					continue
				}
				p.Yield()
			}
			return nil
		})
		if rep.Totals().LocalMsgs == 0 {
			t.Fatalf("iteration %d: no traffic recorded", i)
		}
	}
}

// largeWorldRanks returns the large-world smoke size: 16k ranks in a
// default build, scaled down under the race detector (which multiplies
// per-goroutine cost by an order of magnitude) while staying above the
// scheduler's auto-enable threshold.
func largeWorldRanks() int {
	if raceEnabled {
		return 2048
	}
	return 16384
}

// TestLargeWorldSchedulerSmoke is the scaled-down CI version of the
// 65k experiment: a broadcast and a full barrier across a 16k-rank
// world, which only completes in reasonable memory because an inbox
// holds no per-sender state and the M:N scheduler keeps only GOMAXPROCS
// rank goroutines runnable.
func TestLargeWorldSchedulerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-world smoke skipped in -short mode")
	}
	n := largeWorldRanks()
	cfg := NewConfig(machine.New(n/32, 32), WithSeed(3))
	rep := runWithTimeout(t, 4*time.Minute, cfg, func(p *Proc) error {
		treeBcast(p, TagUser)
		treeBarrier(p, TagUser+1)
		return nil
	})
	if rep.Makespan() <= 0 {
		t.Fatalf("makespan %v, want > 0", rep.Makespan())
	}
	m := rep.Metrics()
	if m.Counter("sched.dispatches") == 0 {
		t.Fatalf("auto scheduler did not engage for a %d-rank world", n)
	}
	if w := m.Gauges["sched.workers"].Last; int(w) != runtime.GOMAXPROCS(0) {
		t.Fatalf("sched.workers = %v, want GOMAXPROCS = %d", w, runtime.GOMAXPROCS(0))
	}
}

// TestFanInExactlyOnce fans 299 ranks' traffic into one inbox, which
// must observe every packet exactly once with its source intact — under
// the scheduler, since large worlds run scheduled in production.
func TestFanInExactlyOnce(t *testing.T) {
	const msgs = 4
	topo := machine.New(30, 10)
	counts := make([]int, topo.WorldSize())
	cfg := NewConfig(topo, WithSeed(9), WithWorkers(4))
	runWithTimeout(t, 2*time.Minute, cfg, func(p *Proc) error {
		if p.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				p.Send(0, TagUser, []byte{byte(i)})
			}
			return nil
		}
		want := msgs * (p.WorldSize() - 1)
		for i := 0; i < want; i++ {
			pkt := p.Recv(TagUser)
			counts[pkt.Src]++ // rank 0 only: no sharing
			p.Recycle(pkt)
		}
		return nil
	})
	for r := 1; r < len(counts); r++ {
		if counts[r] != msgs {
			t.Fatalf("rank %d delivered %d packets to rank 0, want %d", r, counts[r], msgs)
		}
	}
}

// TestLostWakeupUnwindsNotHangs seeds the classic mailbox bug — a
// producer wins the park CAS but its wake never arrives — through the
// testLoseWakeup hook and requires the run to unwind into a
// DeadlockError via the watchdog's force-wake path rather than hang
// forever, under both execution models (the 4-rank world runs direct
// under the automatic policy). The clean control arm proves the
// workload itself is sound.
func TestLostWakeupUnwindsNotHangs(t *testing.T) {
	const victim = machine.Rank(3)
	body := func(p *Proc) error {
		switch p.Rank() {
		case 0:
			// Wait (host time) for the victim to park so the Push is
			// guaranteed to win the pParked CAS — the only path where the
			// seeded wake drop can bite.
			for !p.world.inboxes[victim].waiting.Load() {
				runtime.Gosched()
			}
			p.Send(victim, TagUser, []byte("x"))
		case victim:
			if pkt := p.Recv(TagUser); pkt != nil {
				p.Recycle(pkt)
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"direct", 0}, {"scheduled", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig(machine.New(1, 4),
				WithSeed(1), WithWorkers(tc.workers), WithWatchdogInterval(20*time.Millisecond))

			testLoseWakeup = func(r machine.Rank) bool { return r == victim }
			done := make(chan error, 1)
			go func() {
				_, err := Run(cfg, body)
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(time.Minute):
				testLoseWakeup = nil
				t.Fatal("run hung: lost wakeup was not unwound by the watchdog")
			}
			testLoseWakeup = nil
			var dead *DeadlockError
			if !errors.As(err, &dead) {
				t.Fatalf("got %v, want a *DeadlockError from the poisoned run", err)
			}

			// Control: the identical workload without the seeded bug
			// completes cleanly.
			if _, err := Run(cfg, body); err != nil {
				t.Fatalf("clean control run failed: %v", err)
			}
		})
	}
}

// TestSchedulerWorkersResolution pins the auto-enable policy: small and
// real-time worlds stay on the direct model, large simulated worlds get
// GOMAXPROCS workers, an explicit token count wins on any world, and a
// negative count is an error that Run returns before starting a rank.
func TestSchedulerWorkersResolution(t *testing.T) {
	for _, tc := range []struct {
		cfg      int
		size     int
		realtime bool
		want     int
		wantErr  bool
	}{
		{0, 64, false, 0, false},
		{0, schedAutoWorlds, false, 0, false},
		{0, schedAutoWorlds + 1, false, runtime.GOMAXPROCS(0), false},
		{0, schedAutoWorlds + 1, true, 0, false},
		{3, 64, false, 3, false},
		{3, 64, true, 3, false},
		{-1, 64, false, 0, true},
	} {
		got, err := resolveWorkers(tc.cfg, tc.size, tc.realtime)
		if got != tc.want || (err != nil) != tc.wantErr {
			t.Errorf("resolveWorkers(%d, %d, %v) = %d, %v; want %d, error %v",
				tc.cfg, tc.size, tc.realtime, got, err, tc.want, tc.wantErr)
		}
	}
	ran := false
	if _, err := Run(NewConfig(machine.New(1, 4), WithWorkers(-1)), func(*Proc) error {
		ran = true
		return nil
	}); err == nil || ran {
		t.Fatalf("Run with Workers -1: err %v, body ran %v; want an error and no body", err, ran)
	}
}

// TestSchedulerGrantsInReadyOrder pins the run queue's order: with the
// only token held, ranks readied as 9, 1, 2 are granted that token in
// that order as each holder releases it. A rank is granted within
// `queue length` releases whichever rank releases.
func TestSchedulerGrantsInReadyOrder(t *testing.T) {
	s := newScheduler(16, 1)
	s.acquire(0) // takes the only token without blocking
	order := []machine.Rank{9, 1, 2}
	for _, r := range order {
		s.ready(r)
	}
	holder := machine.Rank(0)
	for i, want := range order {
		s.exit(holder)
		granted := machine.Rank(-1)
		for r := range s.gates {
			select {
			case <-s.gates[r]:
				granted = machine.Rank(r)
			default:
			}
		}
		if granted != want {
			t.Fatalf("release %d granted rank %d, want %d (ready order %v)", i+1, granted, want, order)
		}
		holder = granted
	}
}

// TestSchedulerAcquireTakesForcedGrant covers a poisoned world's forced
// wake landing on a park the rank then takes back: the rank released
// its token, the forced ready() granted it a new one, and the rank's
// own acquire must take that grant instead of a second token.
func TestSchedulerAcquireTakesForcedGrant(t *testing.T) {
	s := newScheduler(8, 2)
	s.acquire(3)
	s.release(3)
	if !s.ready(3) {
		t.Fatal("ready did not find the released rank waiting")
	}
	s.acquire(3) // must not block: the grant is already on the gate
	if s.avail != 1 || s.busy != 1 {
		t.Fatalf("after the forced grant and acquire: avail %d, busy %d; want 1 and 1", s.avail, s.busy)
	}
}

// TestSchedulerYieldFairness is the regression test for run-queue
// starvation: two pollers that ping-pong the only token through
// Proc.Yield must not be able to monopolize dispatch while the ranks
// they poll for sit queued. Ranks 1 and 9 yield to each other; the
// FIFO queue puts each yielder behind every rank readied before it, so
// the parked repliers are still granted.
func TestSchedulerYieldFairness(t *testing.T) {
	poller := func(p *Proc, tag Tag, want int) {
		for got := 0; got < want; {
			if batch := p.DrainBatch(tag, nil); len(batch) > 0 {
				for _, pkt := range batch {
					p.Absorb(pkt)
					p.Recycle(pkt)
				}
				got += len(batch)
				continue
			}
			p.Yield()
		}
	}
	for i := 0; i < 5; i++ {
		cfg := NewConfig(machine.New(1, 12), WithSeed(int64(i)), WithWorkers(1))
		runWithTimeout(t, time.Minute, cfg, func(p *Proc) error {
			n := p.WorldSize()
			switch r := int(p.Rank()); r {
			case 1:
				// Kick every worker rank (most are already parked in
				// their Recv, so these pushes queue them for the
				// token), then poll for the replies.
				for d := 0; d < n; d++ {
					if d != 1 && d != 9 {
						p.Send(machine.Rank(d), TagUser, []byte{1})
					}
				}
				poller(p, TagUser+1, n-2)
			case 9:
				poller(p, TagUser+9, n-2)
			default:
				p.Recycle(p.Recv(TagUser))
				p.Send(1, TagUser+1, []byte{byte(r)})
				p.Send(9, TagUser+9, []byte{byte(r)})
			}
			return nil
		})
	}
}
