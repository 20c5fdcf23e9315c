// Backend-conformance suite: one table of semantic scenarios executed
// against every Wire backend. The properties under test are the wire
// contract the upper layers rely on — exactly-once delivery, per-channel
// FIFO, barrier soundness, peer-death unwinding, pooled-buffer recycle
// balance — plus the acceptance bar that one seeded command script (the
// simtest shape: seeded unicasts, broadcasts, TTL handler spawns,
// quiescence barriers) yields an identical delivery multiset on every
// backend, certified by an order-independent digest gathered to rank 0
// over the wire itself.
//
// sim and local cells run in-process. tcp cells re-exec this test binary
// as one OS process per rank (the TestMain hook below), rendezvous over
// loopback, and report rank 0's digest on stdout; they are skipped under
// -short and when loopback listening is unavailable.
package transport_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"ygm/internal/collective"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// The conformance world: 2 nodes x 2 cores, so every scenario crosses
// both the "local" (same node) and "remote" paths of each backend.
const (
	confNodes = 2
	confCores = 2
	confWorld = confNodes * confCores
	confSeed  = 0x59474d
)

func TestMain(m *testing.M) {
	if os.Getenv("YGM_WIRE_CHILD_SCENARIO") != "" {
		os.Exit(wireChildMain())
	}
	os.Exit(m.Run())
}

// mix is splitmix64: the order-independent digests fold mixed values
// with +, so any permutation of the same delivery multiset agrees.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// wireScenario is one row of the conformance table. body runs as the
// SPMD rank body and returns this rank's digest component; the harness
// gathers components to rank 0 (over the wire under test) and compares
// the combined digest across backends.
type wireScenario struct {
	name      string
	expectErr bool
	body      func(p *transport.Proc, seed int64) (uint64, error)
}

var wireScenarios = []wireScenario{
	{name: "exactly-once-fifo", body: scenarioExactlyOnceFIFO},
	{name: "barrier-soundness", body: scenarioBarrier},
	{name: "mailbox-script-recycle", body: scenarioMailboxScript},
	{name: "peer-death", expectErr: true, body: scenarioPeerDeath},
}

func findScenario(name string) (wireScenario, bool) {
	for _, sc := range wireScenarios {
		if sc.name == name {
			return sc, true
		}
	}
	return wireScenario{}, false
}

const (
	tagConf   = transport.TagUser + 9
	tagDigest = transport.TagUser + 10
)

// gatherDigest folds every rank's digest component into one value at
// rank 0, using the wire under test for the gather itself.
func gatherDigest(p *transport.Proc, local uint64) (uint64, bool) {
	if p.Rank() != 0 {
		buf := p.AcquireBuf(8)
		binary.LittleEndian.PutUint64(buf, local)
		p.SendPooled(0, tagDigest, buf)
		return 0, false
	}
	sum := local
	for i := 1; i < p.WorldSize(); i++ {
		pkt := p.Recv(tagDigest)
		sum += binary.LittleEndian.Uint64(pkt.Payload)
		p.Recycle(pkt)
	}
	return sum, true
}

// scenarioExactlyOnceFIFO sends a counted, sequenced stream from every
// rank to every other rank over the pooled path and asserts each
// channel arrives gap-free, duplicate-free, and in order; Run's packet
// ledger then checks that every received packet was recycled.
func scenarioExactlyOnceFIFO(p *transport.Proc, seed int64) (uint64, error) {
	const perPeer = 64
	me, world := p.Rank(), p.WorldSize()
	for seq := 0; seq < perPeer; seq++ {
		for d := 0; d < world; d++ {
			dst := machine.Rank(d)
			if dst == me {
				continue
			}
			buf := p.AcquireBuf(16)
			binary.LittleEndian.PutUint32(buf[0:4], uint32(me))
			binary.LittleEndian.PutUint32(buf[4:8], uint32(seq))
			binary.LittleEndian.PutUint64(buf[8:16], mix(uint64(seed)^uint64(me)<<32^uint64(d)<<16^uint64(seq)))
			p.SendPooled(dst, tagConf, buf)
		}
	}
	nextSeq := make([]uint32, world)
	var digest uint64
	for n := 0; n < perPeer*(world-1); n++ {
		pkt := p.Recv(tagConf)
		src := binary.LittleEndian.Uint32(pkt.Payload[0:4])
		seq := binary.LittleEndian.Uint32(pkt.Payload[4:8])
		val := binary.LittleEndian.Uint64(pkt.Payload[8:16])
		if machine.Rank(src) != pkt.Src {
			return 0, fmt.Errorf("rank %d: packet claims src %d, wire says %d", me, src, pkt.Src)
		}
		if seq != nextSeq[src] {
			return 0, fmt.Errorf("rank %d: channel from %d delivered seq %d, expected %d (FIFO/exactly-once violation)",
				me, src, seq, nextSeq[src])
		}
		nextSeq[src]++
		digest += mix(val)
		p.Recycle(pkt)
	}
	return digest, nil
}

// scenarioBarrier interleaves counted per-phase point-to-point traffic
// with collective barriers: within one phase's counted receive loop,
// every popped packet must belong to that phase. A rank racing through
// a broken barrier would leak a later phase's packet into an earlier
// counted batch.
func scenarioBarrier(p *transport.Proc, seed int64) (uint64, error) {
	const phases = 6
	me, world := p.Rank(), p.WorldSize()
	c := collective.World(p)
	var digest uint64
	for ph := 0; ph < phases; ph++ {
		for d := 0; d < world; d++ {
			dst := machine.Rank(d)
			if dst == me {
				continue
			}
			buf := p.AcquireBuf(8)
			binary.LittleEndian.PutUint32(buf[0:4], uint32(ph))
			binary.LittleEndian.PutUint32(buf[4:8], uint32(me))
			p.SendPooled(dst, tagConf, buf)
		}
		for n := 0; n < world-1; n++ {
			pkt := p.Recv(tagConf)
			gotPh := binary.LittleEndian.Uint32(pkt.Payload[0:4])
			src := binary.LittleEndian.Uint32(pkt.Payload[4:8])
			if int(gotPh) != ph {
				return 0, fmt.Errorf("rank %d: phase-%d receive loop popped a phase-%d packet from %d (barrier unsound)",
					me, ph, gotPh, src)
			}
			digest += mix(uint64(seed) ^ uint64(ph)<<32 ^ uint64(src)<<8 ^ uint64(me))
			p.Recycle(pkt)
		}
		c.Barrier()
	}
	return digest, nil
}

// scenarioMailboxScript is the simtest command-script shape on the real
// mailbox: seeded unicasts, a broadcast every 16th command, TTL handler
// spawns whose keys and destinations derive only from the parent key,
// and a WaitEmpty quiescence barrier per phase. Its delivery multiset —
// and therefore the gathered digest — must be identical on every
// backend. Run's packet ledger checks that every received packet was
// returned to the pool.
func scenarioMailboxScript(p *transport.Proc, seed int64) (uint64, error) {
	const (
		phases   = 3
		msgs     = 96
		ttl      = 2
		bcastNth = 16
	)
	me, world := p.Rank(), p.WorldSize()
	var digest uint64
	var mb ygm.Box
	handler := func(s ygm.Sender, payload []byte) {
		key := binary.LittleEndian.Uint64(payload[0:8])
		hops := payload[8]
		digest += mix(key)
		if hops == 0 {
			return
		}
		child := mix(key)
		dst := machine.Rank(child % uint64(world))
		out := make([]byte, 9)
		binary.LittleEndian.PutUint64(out[0:8], child)
		out[8] = hops - 1
		s.Send(dst, out)
	}
	mb = ygm.New(p, handler, ygm.WithExchange(ygm.LazyExchange), ygm.WithCapacity(256))
	rng := rand.New(rand.NewSource(seed*7907 + int64(me)*104729))
	for ph := 0; ph < phases; ph++ {
		for i := 0; i < msgs; i++ {
			key := mix(uint64(seed)<<32 ^ uint64(me)<<16 ^ uint64(ph)<<8 ^ uint64(i))
			buf := make([]byte, 9)
			binary.LittleEndian.PutUint64(buf[0:8], key)
			if i%bcastNth == bcastNth-1 {
				buf[8] = 0 // broadcasts do not respawn
				mb.Broadcast(buf)
				continue
			}
			buf[8] = ttl
			mb.Send(machine.Rank(rng.Intn(world)), buf)
		}
		mb.WaitEmpty()
	}
	return digest, nil
}

// scenarioPeerDeath kills rank 1 with an application error while every
// other rank is parked in a blocking receive that can never be
// satisfied. The conformance property is unwinding: on every backend
// the run must abort — not hang — via the failed/poisoned machinery
// (watchdog in-process, connection-fault surfacing over TCP).
func scenarioPeerDeath(p *transport.Proc, seed int64) (uint64, error) {
	if p.Rank() == 1 {
		return 0, fmt.Errorf("rank 1: injected failure")
	}
	pkt := p.Recv(tagConf) // no one ever sends this
	return 0, fmt.Errorf("rank %d: impossible receive returned src %d", p.Rank(), pkt.Src)
}

// runScenarioInProcess executes one scenario on an in-process wire and
// returns rank 0's combined digest.
func runScenarioInProcess(t *testing.T, sc wireScenario, wire transport.Wire) uint64 {
	t.Helper()
	var digest uint64
	cfg := transport.NewConfig(machine.New(confNodes, confCores),
		transport.WithSeed(confSeed),
		transport.WithWire(wire),
		transport.WithWatchdogInterval(50*time.Millisecond),
	)
	_, err := transport.Run(cfg, func(p *transport.Proc) error {
		d, err := sc.body(p, confSeed)
		if err != nil {
			return err
		}
		if sum, root := gatherDigest(p, d); root {
			digest = sum
		}
		return nil
	})
	if sc.expectErr {
		if err == nil {
			t.Fatalf("%s: expected the run to abort, got success", sc.name)
		}
		return 0
	}
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	return digest
}

// TestWireConformance runs the scenario table on the in-process
// backends and asserts the digests agree between them.
func TestWireConformance(t *testing.T) {
	for _, sc := range wireScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			simDigest := runScenarioInProcess(t, sc, transport.SimWire{})
			localDigest := runScenarioInProcess(t, sc, transport.LocalWire{})
			if simDigest != localDigest {
				t.Fatalf("delivery multiset diverged: sim digest %#x, local digest %#x", simDigest, localDigest)
			}
		})
	}
}

// TestWireConformanceTCP runs the same table as real OS processes over
// loopback TCP and asserts the digests agree with the sim backend.
func TestWireConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process TCP cells skipped under -short")
	}
	if !loopbackAvailable() {
		t.Skip("loopback TCP listening unavailable in this environment")
	}
	for _, sc := range wireScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			digest, errs := runScenarioTCP(t, sc)
			if sc.expectErr {
				for r, err := range errs {
					if err == nil {
						t.Fatalf("rank %d process: expected the run to abort, got success", r)
					}
				}
				return
			}
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d process: %v", r, err)
				}
			}
			simDigest := runScenarioInProcess(t, sc, transport.SimWire{})
			if digest != simDigest {
				t.Fatalf("delivery multiset diverged: sim digest %#x, tcp digest %#x", simDigest, digest)
			}
		})
	}
}

func loopbackAvailable() bool {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// freeLoopbackAddr reserves an ephemeral port and releases it for the
// children's rendezvous. The tiny reuse race is tolerable in tests: the
// root retries binding and the clients retry dialing until the
// handshake deadline.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runScenarioTCP re-execs this test binary as confWorld rank processes,
// waits for all of them (with a hang guard), and returns rank 0's
// digest plus each process's outcome.
func runScenarioTCP(t *testing.T, sc wireScenario) (uint64, []error) {
	t.Helper()
	addr := freeLoopbackAddr(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, confWorld)
	outs := make([]*bytes.Buffer, confWorld)
	for r := 0; r < confWorld; r++ {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"YGM_WIRE_CHILD_SCENARIO="+sc.name,
			"YGM_WIRE_CHILD_RANK="+strconv.Itoa(r),
			"YGM_WIRE_CHILD_RDV="+addr,
			"YGM_WIRE_CHILD_SEED="+strconv.Itoa(confSeed),
		)
		buf := &bytes.Buffer{}
		cmd.Stdout = buf
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting rank %d process: %v", r, err)
		}
		cmds[r] = cmd
		outs[r] = buf
	}
	guard := time.AfterFunc(90*time.Second, func() {
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
	})
	defer guard.Stop()
	errs := make([]error, confWorld)
	for r, cmd := range cmds {
		errs[r] = cmd.Wait()
		if errs[r] != nil && !sc.expectErr {
			t.Logf("rank %d process output:\n%s", r, outs[r].String())
		}
	}
	var digest uint64
	scan := bufio.NewScanner(outs[0])
	for scan.Scan() {
		if rest, ok := strings.CutPrefix(scan.Text(), "DIGEST "); ok {
			digest, err = strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad digest line from rank 0: %v", err)
			}
		}
	}
	return digest, errs
}

// wireChildMain is one rank process of a TCP conformance cell, entered
// through TestMain when the child environment is present.
func wireChildMain() int {
	name := os.Getenv("YGM_WIRE_CHILD_SCENARIO")
	sc, ok := findScenario(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", name)
		return 2
	}
	rank, err := strconv.Atoi(os.Getenv("YGM_WIRE_CHILD_RANK"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad rank:", err)
		return 2
	}
	seed, err := strconv.ParseInt(os.Getenv("YGM_WIRE_CHILD_SEED"), 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad seed:", err)
		return 2
	}
	wire := transport.NewTCPWire(transport.TCPOptions{
		Rank:       rank,
		Rendezvous: os.Getenv("YGM_WIRE_CHILD_RDV"),
		Timeout:    20 * time.Second,
	})
	var digest uint64
	var isRoot bool
	cfg := transport.NewConfig(machine.New(confNodes, confCores),
		transport.WithSeed(seed),
		transport.WithWire(wire),
	)
	_, err = transport.Run(cfg, func(p *transport.Proc) error {
		d, err := sc.body(p, seed)
		if err != nil {
			return err
		}
		if sum, root := gatherDigest(p, d); root {
			digest = sum
			isRoot = true
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rank %d: %v\n", rank, err)
		return 1
	}
	if isRoot {
		fmt.Printf("DIGEST %d\n", digest)
	}
	return 0
}
