// Rendezvous edge cases: the failure paths of the TCP handshake must
// produce clean, prompt errors — never hangs. Each "process" here is an
// in-process transport.Run hosting one rank over a real loopback socket
// (the same code path the re-exec conformance children run; co-locating
// the ranks just makes failure injection and timing assertions direct).
package transport_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// runTCPRank runs one rank of a TCP world and returns transport.Run's
// error. Timeout bounds the handshake.
func runTCPRank(nodes, cores, rank int, rdv string, timeout time.Duration,
	body func(p *transport.Proc) error) error {
	wire := transport.NewTCPWire(transport.TCPOptions{
		Rank:       rank,
		Rendezvous: rdv,
		Timeout:    timeout,
	})
	cfg := transport.NewConfig(machine.New(nodes, cores),
		transport.WithSeed(1),
		transport.WithWire(wire),
	)
	_, err := transport.Run(cfg, body)
	return err
}

func noop(p *transport.Proc) error { return nil }

// TestTCPRendezvousListenFailsFast pins the listen-retry fix: a
// permanently unbindable rendezvous address (unroutable host, not
// EADDRINUSE) must fail immediately, not spin against the full
// handshake deadline.
func TestTCPRendezvousListenFailsFast(t *testing.T) {
	if !loopbackAvailable() {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	start := time.Now()
	err := runTCPRank(1, 2, 0, "203.0.113.1:1", 30*time.Second, noop) // TEST-NET-3: never local
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("root bound an unroutable rendezvous address")
	}
	if !strings.Contains(err.Error(), "rendezvous listen") {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("unbindable address took %v to fail; the retry loop is eating permanent errors", elapsed)
	}
}

// TestTCPRendezvousPortHeldByStranger pins the already-bound path: when
// the rendezvous port stays occupied by a non-YGM listener, the root
// must give up with a clean listen error once its (short) handshake
// deadline passes — EADDRINUSE is retryable, but not forever.
func TestTCPRendezvousPortHeldByStranger(t *testing.T) {
	if !loopbackAvailable() {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	squatter, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	start := time.Now()
	err = runTCPRank(1, 2, 0, squatter.Addr().String(), 500*time.Millisecond, noop)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("root claimed a rendezvous port another process holds")
	}
	if !strings.Contains(err.Error(), "rendezvous listen") {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("held port took %v to fail a 500ms handshake", elapsed)
	}
}

// TestTCPRendezvousPortReleasedMidRetry pins the retry loop's reason to
// exist: an EADDRINUSE that clears (the previous run's socket draining)
// must be waited out by the root, and the handshake must then complete
// normally. The client is held back until the squatter releases the port
// — a client dialing earlier would land in the squatter's backlog and
// its hello would be lost with it.
func TestTCPRendezvousPortReleasedMidRetry(t *testing.T) {
	if !loopbackAvailable() {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	squatter, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rdv := squatter.Addr().String()
	released := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		squatter.Close()
		close(released)
	}()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r == 1 {
				<-released
				time.Sleep(100 * time.Millisecond) // let the port actually free up
			}
			errs[r] = runTCPRank(1, 2, r, rdv, 10*time.Second, noop)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed after the squatter released the port: %v", r, err)
		}
	}
}

// TestTCPDuplicateRankRejected pins roster validation: two processes
// claiming the same rank id must fail the handshake with an explicit
// duplicate diagnosis at the root — not win by race, not hang the world.
// World is 1x3 with the genuine rank 2 absent, so both impostors' hellos
// are read while the roster is still open.
func TestTCPDuplicateRankRejected(t *testing.T) {
	if !loopbackAvailable() {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	rdv := freeLoopbackAddr(t)
	const timeout = 2 * time.Second
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, rank := range []int{0, 1, 1} { // rank 1 twice, rank 2 never arrives
		i, rank := i, rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runTCPRank(1, 3, rank, rdv, timeout, noop)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("duplicate-rank handshake hung")
	}
	if errs[0] == nil {
		t.Fatal("root accepted two processes claiming rank 1")
	}
	if !strings.Contains(errs[0].Error(), "duplicate hello from rank 1") {
		t.Fatalf("root error does not diagnose the duplicate: %v", errs[0])
	}
	// Both impostors must fail too (the root tore the rendezvous down),
	// and promptly — no one may sit out a silent 30s default.
	for i := 1; i < 3; i++ {
		if errs[i] == nil {
			t.Fatalf("impostor %d completed the handshake in a world the root aborted", i)
		}
	}
}

// TestTCPPartialRosterTimesOutCleanly pins the missing-rank path: when
// a rank never shows up, the root and every present client must unwind
// with clean errors once the handshake deadline passes, each naming its
// stalled phase.
func TestTCPPartialRosterTimesOutCleanly(t *testing.T) {
	if !loopbackAvailable() {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	rdv := freeLoopbackAddr(t)
	const timeout = 500 * time.Millisecond
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for _, rank := range []int{0, 1} { // world is 1x3; rank 2 never starts
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = runTCPRank(1, 3, rank, rdv, timeout, noop)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if errs[0] == nil {
		t.Fatal("root completed a handshake missing one rank")
	}
	if !strings.Contains(errs[0].Error(), "still missing 1 rank") {
		t.Fatalf("root error does not name the missing rank count: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("client completed a handshake the root never finished")
	}
	if elapsed > 15*time.Second {
		t.Fatalf("partial roster took %v to unwind a %v handshake", elapsed, timeout)
	}
}

// TestTCPStrayAfterHandshakeFailsFast pins the listener-close fix: once
// the start barrier has released, the root's rendezvous listener is
// gone, so a stray process (duplicate rank id arriving late) fails its
// dial loop at its *own* short deadline with a clean error instead of
// connecting into a silent backlog and hanging for the default 30s.
func TestTCPStrayAfterHandshakeFailsFast(t *testing.T) {
	if !loopbackAvailable() {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	rdv := freeLoopbackAddr(t)
	handshook := make(chan struct{}, 2)
	release := make(chan struct{})
	hold := func(p *transport.Proc) error {
		handshook <- struct{}{} // Start returned: the mesh is up
		<-release               // keep the world (and its sockets) alive
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = runTCPRank(1, 2, r, rdv, 10*time.Second, hold)
		}()
	}
	<-handshook
	<-handshook
	// The world is live mid-run. A stray claiming rank 1 must bounce off
	// the closed listener within its own 1s deadline.
	start := time.Now()
	strayErr := runTCPRank(1, 2, 1, rdv, 1*time.Second, noop)
	elapsed := time.Since(start)
	close(release)
	wg.Wait()
	if strayErr == nil {
		t.Fatal("stray duplicate-rank process completed a handshake against a finished world")
	}
	if !strings.Contains(strayErr.Error(), "rendezvous") {
		t.Fatalf("stray error does not name the rendezvous phase: %v", strayErr)
	}
	if elapsed > 8*time.Second {
		t.Fatalf("stray took %v to fail a 1s handshake; the rendezvous listener is lingering", elapsed)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("stray dial disturbed live rank %d: %v", r, err)
		}
	}
}

// TestTCPHandshakeLengthCapped pins the control-frame cap: a stray
// client that speaks the preamble and then announces a 200 MiB hello
// must be refused on the length alone — before the root allocates a
// byte for it — and Start must fail naming the length.
func TestTCPHandshakeLengthCapped(t *testing.T) {
	if !loopbackAvailable() {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	rdv := freeLoopbackAddr(t)
	go func() {
		var conn net.Conn
		for i := 0; i < 500; i++ { // the root is not listening yet when this starts
			var err error
			if conn, err = net.Dial("tcp", rdv); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if conn == nil {
			return // the root times out and the test reports that
		}
		defer conn.Close()
		var b [9]byte
		binary.LittleEndian.PutUint32(b[0:4], 0x59474d57) // "YGMW"
		b[4] = transport.TCPVersion
		binary.LittleEndian.PutUint32(b[5:9], 200<<20)
		conn.Write(b[:])
		conn.Read(b[:1]) // hold the connection until the root drops it
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := runTCPRank(1, 2, 0, rdv, 10*time.Second, noop)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "frame length 209715200 out of range") {
		t.Fatalf("Start did not refuse a 200 MiB hello by its length: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the hello allocated %d bytes; the length was trusted before it was checked", grew)
	}
}

// TestTCPSendQueueWriteFailureUnblocksSender is the failure path through
// the send queue. Rank 1 stops reading, so rank 0 — streaming 32 KiB
// frames — ends up blocked in Inject behind a full window with its
// writer blocked in the kernel. Then rank 1's body returns an error and
// its Finish slams the sockets. Rank 0's writer must report the fault
// and keep discarding, so that rank 0 wakes, unwinds, and Run returns
// the typed wire error promptly; and both Runs must take every reader
// and writer goroutine with them.
func TestTCPSendQueueWriteFailureUnblocksSender(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var sent atomic.Int64
	var failedAt time.Time
	_, errs := runTCPWorld(t, 2, func(p *transport.Proc) error {
		if p.Rank() == 1 {
			defer transport.StallPool(p)()
			// Rank 0 is blocked once its send count stops moving.
			for last, still := int64(-1), 0; still < 10; {
				time.Sleep(10 * time.Millisecond)
				if n := sent.Load(); n == last && n > 0 {
					still++
				} else {
					last, still = n, 0
				}
			}
			failedAt = time.Now()
			return fmt.Errorf("rank 1: injected failure")
		}
		for {
			p.SendPooled(1, tagQ, p.AcquireBuf(32<<10))
			sent.Add(1)
			p.AbortIfPeerFailed()
		}
	})
	unwound := time.Since(failedAt)
	if errs[0] == nil || !(strings.Contains(errs[0].Error(), "tcp: send to rank 1") ||
		strings.Contains(errs[0].Error(), "tcp: stream from rank 1")) {
		t.Fatalf("rank 0: want the typed wire error for rank 1, got: %v", errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "injected failure") {
		t.Fatalf("rank 1: want its own error back, got: %v", errs[1])
	}
	if unwound > 2*time.Second {
		t.Fatalf("rank 0 took %v to unwind after rank 1 failed", unwound)
	}
	t.Logf("rank 0 blocked after %d frames, unwound %v after rank 1 failed", sent.Load(), unwound)
	for i := 0; runtime.NumGoroutine() > goroutines; i++ {
		if i == 100 {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the runs, %d after:\n%s", goroutines, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPGoodbyeEndsStream pins the goodbye as the last frame of a
// stream. Rank 0 queues crafted bytes ahead of its real goodbye: a
// goodbye frame whose length is not 1, or a well-formed goodbye followed
// by a data frame. Either must reach rank 1 as a wire fault naming the
// goodbye, not be taken for a clean end with the rest parsed as frames
// or delivered. Rank 1 polls for at most 5 s, so a missed fault fails
// the test instead of hanging it.
func TestTCPGoodbyeEndsStream(t *testing.T) {
	dataFrame := binary.LittleEndian.AppendUint32(nil, 9+1)
	dataFrame = append(dataFrame, 6) // kindData
	dataFrame = binary.LittleEndian.AppendUint64(dataFrame, uint64(tagQ))
	dataFrame = append(dataFrame, 0xab)
	for _, tc := range []struct {
		name, want string
		stream     []byte
	}{
		{"long goodbye", "goodbye frame of 2 bytes", []byte{2, 0, 0, 0, 7, 0}},
		{"frame after goodbye", "data after goodbye", append([]byte{1, 0, 0, 0, 7}, dataFrame...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, errs := runTCPWorld(t, 2, func(p *transport.Proc) error {
				if p.Rank() == 0 {
					transport.QueueRaw(p, 1, tc.stream)
					return nil
				}
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
					p.AbortIfPeerFailed()
					if pkt := p.Poll(tagQ); pkt != nil {
						p.Recycle(pkt)
						return fmt.Errorf("a frame after the goodbye was delivered")
					}
					time.Sleep(time.Millisecond)
				}
				return fmt.Errorf("no wire fault within 5 s")
			})
			if errs[1] == nil || !strings.Contains(errs[1].Error(), tc.want) {
				t.Fatalf("rank 1: got %v, want a wire fault containing %q", errs[1], tc.want)
			}
		})
	}
}
