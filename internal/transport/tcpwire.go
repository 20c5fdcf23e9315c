package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/obs"
)

// TCP wire protocol. Every connection (rendezvous and mesh alike) opens
// with a fixed preamble — magic, version — so a stray client or a
// version-skewed peer is rejected before any frame parsing. After the
// preamble the stream is a sequence of length-prefixed frames:
//
//	[u32 LE body length][body]
//
// where the body's first byte is the frame kind. Control-frame bodies
// (hello, roster, peer hello) are encoded with internal/codec — the same
// uvarint/string conventions as every persisted artifact in the repo —
// and validated field by field. Data frames keep the tag as a fixed u64
// so the reader can size one exact pooled-buffer read for the payload:
//
//	[u32 n][kindMsg or kindPooled][u64 LE tag][n-9 payload bytes]
//
// The kind carries the packet's pooled mark: only a kindPooled payload
// goes back to the pool at Recycle, since a plain Send payload belongs
// to the receiver, which may keep it.
//
// Arrival stamps are assigned on the RECEIVING host (reader goroutine,
// host clock) rather than carried in the frame: the inbox only needs
// stamps that are monotone per channel and never in the receiver's
// future, and re-stamping makes both hold by construction regardless of
// inter-process clock skew.
const (
	tcpMagic   uint32 = 0x59474d57 // "YGMW"
	tcpVersion byte   = 1

	kindHello     byte = 1 // client -> rank 0 on the rendezvous conn
	kindRoster    byte = 2 // rank 0 -> client: mesh addresses of every rank
	kindReady     byte = 3 // client -> rank 0: mesh established
	kindGo        byte = 4 // rank 0 -> client: every rank is ready, run
	kindPeerHello byte = 5 // mesh dialer -> listener: my rank
	kindMsg       byte = 6 // data packet sent with Send
	kindGoodbye   byte = 7 // clean end-of-stream; EOF without it is a fault
	kindPooled    byte = 8 // data packet sent with SendPooled

	// tcpMaxFrame bounds one data-frame body; larger reads indicate stream
	// corruption, not traffic (mailbox payloads are capacity-bounded).
	// Handshake frames have their own, much smaller cap: readCtrlFrame.
	tcpMaxFrame = 1 << 28

	// tcpSendWindow is how many bytes a peer's send queue may hold before
	// Inject waits for the writer. It bounds what a sender that outruns
	// the socket can pin: at most the window plus one frame is pending
	// while as much again is inside the write. Measured on stream_tcp (2
	// processes, ~176-byte frames, three alternating rounds), peak_rss_mb
	// against the synchronous wire's 20.4: no bound 24.3–25.1, 1 MiB
	// 24.0–24.4, 256 KiB 21.4–22.2, 64 KiB 20.7–20.9 — while ops_per_s
	// overlapped at every setting (13.2–15.8 M at 64 KiB, 13.3–16.3 M
	// unbounded), because one 64 KiB batch is already hundreds of frames
	// per write. EXPERIMENTS.md "TCP send queue".
	tcpSendWindow = 64 << 10

	// dataHdrLen is the fixed prefix of a data frame: length, kind, tag.
	dataHdrLen = 4 + 1 + 8
)

// TCPOptions configures a TCPWire; see NewTCPWire.
type TCPOptions struct {
	// Rank is the rank this process hosts, in [0, WorldSize).
	Rank int
	// Rendezvous is the host:port rank 0 listens on and every other rank
	// dials for the handshake (world-size check, rank uniqueness, mesh
	// address exchange, start barrier).
	Rendezvous string
	// Timeout bounds the whole handshake — rendezvous dial retries, mesh
	// dials and accepts, the start barrier. Zero means 30s.
	Timeout time.Duration
}

// TCPWire runs one rank per OS process over localhost (or LAN) TCP:
// rank 0 serves a rendezvous handshake, every pair of ranks holds one
// framed stream, and per-peer reader goroutines push decoded packets
// into the local rank's inbox — each reader is the only producer for
// its (local, peer) channel, so per-channel order is the stream's
// order. Sends are asynchronous: Inject
// copies the frame into the peer's send queue and a per-peer writer
// goroutine hands everything queued to the kernel in one write (see
// tcpPeer). Connection faults (a failed write, a peer reset or EOF
// without the goodbye frame) surface through World.WireFail into the
// same failed/poisoned unwinding the deadlock watchdog uses.
//
// A TCPWire value is single-use; construct one per Run.
type TCPWire struct {
	opt  TCPOptions
	w    *World
	self machine.Rank

	// peers[r] is the mesh connection to rank r (nil at self). Writes
	// are exclusive to the peer's writer goroutine, reads to its reader
	// goroutine.
	peers []*tcpPeer

	// rendezvous residue: the accepted conns (root) or the conn to the
	// root (client) stay open until Finish; the root's listener is
	// closed as soon as the start barrier completes, so stray late
	// dialers fail fast instead of hanging against a silent listener.
	rdvLn    net.Listener
	rdvConns []net.Conn

	// readers and writers join the per-peer goroutines Start spawns;
	// Finish waits for both, so neither kind outlives the Run.
	readers sync.WaitGroup
	writers sync.WaitGroup
	// closing suppresses fault reports for resets caused by our own
	// teardown.
	closing atomic.Bool

	// What crossed the send queues, counted where it happens and
	// reported by Metrics: frames and bytes as Inject (and Finish's
	// goodbye) queue them, writes as the writers issue them, and
	// windowStalls once per Inject that found the window full.
	frames, bytes, writes, windowStalls atomic.Uint64
	// readerPoolOps sums the readers' shared-pool refills, added as each
	// reader exits; the ranks count their own.
	readerPoolOps atomic.Uint64
}

// tcpPeer is one mesh connection, its send queue and its reader state.
//
// The send queue is group commit over two byte buffers: Inject appends
// whole frames to pending under mu; the writer goroutine takes all of
// pending, leaves its spare buffer in its place, and issues one
// conn.Write for the batch — which is therefore whatever accumulated
// while the previous write was in the kernel. There is no timer and no
// size rule: an idle writer is woken by the first frame and writes it
// at once, a busy one finds the next batch waiting. The buffers grow to
// the window plus the largest frame sent and are kept for reuse.
type tcpPeer struct {
	conn net.Conn

	mu sync.Mutex
	// work wakes the writer when pending turns non-empty or done is set;
	// space is broadcast after every batch for Inject (window) and Flush
	// (drained) waiters.
	work, space sync.Cond
	pending     []byte // frames queued and not yet taken by the writer
	spare       []byte // the writer's other buffer, empty
	writing     bool   // the writer holds a batch it has not finished with
	done        bool   // Finish: nothing will be queued after pending
}

func newTCPPeer(conn net.Conn) *tcpPeer {
	peer := &tcpPeer{conn: conn}
	peer.work.L = &peer.mu
	peer.space.L = &peer.mu
	return peer
}

// NewTCPWire returns a TCP backend for one rank of a multi-process run.
func NewTCPWire(opt TCPOptions) *TCPWire {
	return &TCPWire{opt: opt}
}

func (t *TCPWire) Name() string   { return "tcp" }
func (t *TCPWire) RealTime() bool { return true }

func (t *TCPWire) LocalRanks(topo machine.Topology) []machine.Rank {
	return []machine.Rank{machine.Rank(t.opt.Rank)}
}

// Start performs the rendezvous handshake and builds the full mesh; on
// return every pair of ranks is connected, every process has passed the
// start barrier, and the reader and writer goroutines are live.
func (t *TCPWire) Start(w *World) error {
	size := w.topo.WorldSize()
	if t.opt.Rank < 0 || t.opt.Rank >= size {
		return fmt.Errorf("tcp: rank %d outside world of %d", t.opt.Rank, size)
	}
	if t.w != nil {
		return fmt.Errorf("tcp: wire already started (one TCPWire per Run)")
	}
	t.w = w
	t.self = machine.Rank(t.opt.Rank)
	t.peers = make([]*tcpPeer, size)
	if size == 1 {
		return nil
	}
	if t.opt.Rendezvous == "" {
		return fmt.Errorf("tcp: no rendezvous address")
	}
	timeout := t.opt.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := hostNow().Add(timeout)

	// Every rank opens an ephemeral mesh listener first, so its address
	// can travel in the handshake and peers can dial the moment they
	// learn it.
	meshLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcp: mesh listen: %w", err)
	}
	defer meshLn.Close()

	var roster []string
	if t.self == 0 {
		roster, err = t.rendezvousRoot(meshLn.Addr().String(), deadline)
	} else {
		roster, err = t.rendezvousClient(meshLn.Addr().String(), deadline)
	}
	if err != nil {
		t.closeAll()
		return err
	}
	if err := t.connectMesh(meshLn, roster, deadline); err != nil {
		t.closeAll()
		return err
	}
	if err := t.startBarrier(deadline); err != nil {
		t.closeAll()
		return err
	}
	// The rendezvous listener has served its purpose once the start
	// barrier releases: every legitimate rank is connected. Close it now
	// so a stray process — a duplicate rank id, a survivor of a previous
	// run, a typo'd -rank-id — gets an immediate connection refusal (or
	// a reset of its half-open backlog connection) instead of waiting
	// out its own full handshake deadline against a silent listener.
	// The accepted rendezvous conns stay open for the goodbye exchange.
	if t.rdvLn != nil {
		t.rdvLn.Close()
		t.rdvLn = nil
	}
	// Anchor the real-time clocks after the barrier and before any
	// reader can stamp an arrival, so makespans exclude the handshake
	// and no stamp precedes the epoch.
	w.epoch = hostNow()
	for r, peer := range t.peers {
		if peer == nil {
			continue
		}
		t.readers.Add(1)
		go t.readLoop(machine.Rank(r), peer)
		t.writers.Add(1)
		go t.writeLoop(machine.Rank(r), peer)
	}
	return nil
}

// rendezvousRoot binds the rendezvous address (retrying while a previous
// run's socket drains), collects one hello from every other rank,
// validates world agreement and rank uniqueness, and answers each with
// the full mesh-address roster.
func (t *TCPWire) rendezvousRoot(selfAddr string, deadline time.Time) ([]string, error) {
	size := t.w.topo.WorldSize()
	var ln net.Listener
	var err error
	for {
		ln, err = net.Listen("tcp", t.opt.Rendezvous)
		if err == nil {
			break
		}
		// Only "address already in use" is worth waiting out (a previous
		// run's socket draining, or back-to-back runs reusing one
		// rendezvous address). Every other listen failure — malformed
		// address, unroutable host, permission denied — is permanent, and
		// retrying it would turn a clean error into a deadline hang.
		if !errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("tcp: rendezvous listen %s: %w", t.opt.Rendezvous, err)
		}
		if hostNow().After(deadline) {
			return nil, fmt.Errorf("tcp: rendezvous listen %s: %w", t.opt.Rendezvous, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.rdvLn = ln
	if d, ok := ln.(*net.TCPListener); ok {
		d.SetDeadline(deadline)
	}
	roster := make([]string, size)
	roster[0] = selfAddr
	t.rdvConns = make([]net.Conn, size) // index = rank; [0] unused
	for need := size - 1; need > 0; need-- {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("tcp: rendezvous accept (still missing %d rank(s)): %w", need, err)
		}
		conn.SetDeadline(deadline)
		rank, meshAddr, err := t.readHello(conn)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if t.rdvConns[rank] != nil {
			conn.Close()
			return nil, fmt.Errorf("tcp: duplicate hello from rank %d", rank)
		}
		t.rdvConns[rank] = conn
		roster[rank] = meshAddr
	}
	body := codec.NewWriter(64)
	body.Byte(kindRoster)
	body.Uvarint(uint64(size))
	for _, addr := range roster {
		body.String(addr)
	}
	for r, conn := range t.rdvConns {
		if conn == nil {
			continue
		}
		if err := writeFrame(conn, body.Bytes()); err != nil {
			return nil, fmt.Errorf("tcp: roster to rank %d: %w", r, err)
		}
	}
	return roster, nil
}

// readHello validates one rendezvous connection: preamble, then a hello
// frame whose topology must agree with ours.
func (t *TCPWire) readHello(conn net.Conn) (int, string, error) {
	if err := readPreamble(conn); err != nil {
		return 0, "", fmt.Errorf("tcp: rendezvous hello: %w", err)
	}
	body, err := t.readCtrlFrame(conn)
	if err != nil {
		return 0, "", fmt.Errorf("tcp: rendezvous hello: %w", err)
	}
	return t.parseHello(body)
}

// parseHello decodes a hello body: the client's rank, the topology it
// built, which must be ours, and its mesh address.
func (t *TCPWire) parseHello(body []byte) (int, string, error) {
	r := codec.NewReader(body)
	kind, err := r.Byte()
	if err != nil || kind != kindHello {
		return 0, "", fmt.Errorf("tcp: rendezvous: expected hello, got kind %d (%v)", kind, err)
	}
	rank, err1 := r.Uvarint()
	nodes, err2 := r.Uvarint()
	cores, err3 := r.Uvarint()
	meshAddr, err4 := r.String()
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return 0, "", fmt.Errorf("tcp: malformed hello: %w", err)
		}
	}
	topo := t.w.topo
	if int(nodes) != topo.Nodes() || int(cores) != topo.Cores() {
		return 0, "", fmt.Errorf("tcp: topology mismatch: peer rank %d built %dx%d, this process %dx%d",
			rank, nodes, cores, topo.Nodes(), topo.Cores())
	}
	if rank == 0 || rank >= uint64(topo.WorldSize()) {
		return 0, "", fmt.Errorf("tcp: hello from invalid rank %d (world %d)", rank, topo.WorldSize())
	}
	return int(rank), meshAddr, nil
}

// rendezvousClient dials rank 0 (retrying until the root is listening),
// sends this process's hello, and reads back the roster.
func (t *TCPWire) rendezvousClient(selfAddr string, deadline time.Time) ([]string, error) {
	topo := t.w.topo
	var conn net.Conn
	var err error
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err = d.Dial("tcp", t.opt.Rendezvous)
		if err == nil {
			break
		}
		if hostNow().After(deadline) {
			return nil, fmt.Errorf("tcp: rank %d could not reach rendezvous %s: %w", t.self, t.opt.Rendezvous, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	conn.SetDeadline(deadline)
	t.rdvConns = []net.Conn{conn}
	if err := writePreamble(conn); err != nil {
		return nil, fmt.Errorf("tcp: rendezvous hello: %w", err)
	}
	body := codec.NewWriter(64)
	body.Byte(kindHello)
	body.Uvarint(uint64(t.self))
	body.Uvarint(uint64(topo.Nodes()))
	body.Uvarint(uint64(topo.Cores()))
	body.String(selfAddr)
	if err := writeFrame(conn, body.Bytes()); err != nil {
		return nil, fmt.Errorf("tcp: rendezvous hello: %w", err)
	}
	rbody, err := t.readCtrlFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("tcp: roster: %w", err)
	}
	return parseRoster(rbody, topo.WorldSize())
}

// parseRoster decodes a roster body: one mesh address for each of the
// size ranks of the world.
func parseRoster(body []byte, size int) ([]string, error) {
	r := codec.NewReader(body)
	kind, err := r.Byte()
	if err != nil || kind != kindRoster {
		return nil, fmt.Errorf("tcp: expected roster, got kind %d (%v)", kind, err)
	}
	world, err := r.Uvarint()
	if err != nil || world != uint64(size) {
		return nil, fmt.Errorf("tcp: roster world %d does not match topology %d (%v)", world, size, err)
	}
	roster := make([]string, world)
	for i := range roster {
		if roster[i], err = r.String(); err != nil {
			return nil, fmt.Errorf("tcp: malformed roster: %w", err)
		}
	}
	return roster, nil
}

// connectMesh establishes the pairwise streams: this rank dials every
// lower rank's mesh listener (identifying itself with a peer hello) and
// accepts one connection from every higher rank.
func (t *TCPWire) connectMesh(meshLn net.Listener, roster []string, deadline time.Time) error {
	for j := 0; j < int(t.self); j++ {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", roster[j])
		if err != nil {
			return fmt.Errorf("tcp: rank %d dialing rank %d at %s: %w", t.self, j, roster[j], err)
		}
		if err := writePreamble(conn); err != nil {
			conn.Close()
			return fmt.Errorf("tcp: peer hello to rank %d: %w", j, err)
		}
		body := codec.NewWriter(8)
		body.Byte(kindPeerHello)
		body.Uvarint(uint64(t.self))
		if err := writeFrame(conn, body.Bytes()); err != nil {
			conn.Close()
			return fmt.Errorf("tcp: peer hello to rank %d: %w", j, err)
		}
		t.peers[j] = newTCPPeer(conn)
	}
	if d, ok := meshLn.(*net.TCPListener); ok {
		d.SetDeadline(deadline)
	}
	for need := len(roster) - 1 - int(t.self); need > 0; need-- {
		conn, err := meshLn.Accept()
		if err != nil {
			return fmt.Errorf("tcp: rank %d mesh accept (still missing %d peer(s)): %w", t.self, need, err)
		}
		conn.SetDeadline(deadline)
		if err := readPreamble(conn); err != nil {
			conn.Close()
			return fmt.Errorf("tcp: mesh preamble: %w", err)
		}
		body, err := t.readCtrlFrame(conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("tcp: peer hello: %w", err)
		}
		rank, err := parsePeerHello(body, t.self, len(roster))
		if err == nil && t.peers[rank] != nil {
			err = fmt.Errorf("tcp: duplicate peer hello from rank %d", rank)
		}
		if err != nil {
			conn.Close()
			return err
		}
		conn.SetDeadline(time.Time{})
		t.peers[rank] = newTCPPeer(conn)
	}
	// Dialed conns also drop their handshake deadline before data flows.
	for j := 0; j < int(t.self); j++ {
		t.peers[j].conn.SetDeadline(time.Time{})
	}
	return nil
}

// parsePeerHello decodes a peer-hello body: the dialer's rank, which
// must be above self, the listener, and inside a world of size ranks.
func parsePeerHello(body []byte, self machine.Rank, size int) (uint64, error) {
	r := codec.NewReader(body)
	kind, err := r.Byte()
	if err != nil || kind != kindPeerHello {
		return 0, fmt.Errorf("tcp: expected peer hello, got kind %d (%v)", kind, err)
	}
	rank, err := r.Uvarint()
	if err != nil || rank <= uint64(self) || rank >= uint64(size) {
		return 0, fmt.Errorf("tcp: bad peer hello rank %d (%v)", rank, err)
	}
	return rank, nil
}

// startBarrier holds every process at the end of the handshake until
// all of them got there: clients report ready over the rendezvous conn
// and wait for go; the root releases them once all readies are in. This
// keeps handshake failures inside Start on every process, instead of
// surfacing as mid-run resets on the fast ones.
func (t *TCPWire) startBarrier(deadline time.Time) error {
	frame := func(kind byte) []byte { return []byte{kind} }
	if t.self == 0 {
		for r, conn := range t.rdvConns {
			if conn == nil {
				continue
			}
			body, err := t.readCtrlFrame(conn)
			if err != nil || len(body) != 1 || body[0] != kindReady {
				return fmt.Errorf("tcp: waiting for rank %d ready: %v", r, err)
			}
		}
		for r, conn := range t.rdvConns {
			if conn == nil {
				continue
			}
			if err := writeFrame(conn, frame(kindGo)); err != nil {
				return fmt.Errorf("tcp: releasing rank %d: %w", r, err)
			}
			conn.SetDeadline(time.Time{})
		}
		return nil
	}
	conn := t.rdvConns[0]
	if err := writeFrame(conn, frame(kindReady)); err != nil {
		return fmt.Errorf("tcp: ready: %w", err)
	}
	body, err := t.readCtrlFrame(conn)
	if err != nil || len(body) != 1 || body[0] != kindGo {
		return fmt.Errorf("tcp: waiting for go: %v", err)
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// Inject delivers one stamped packet: a self-send is a direct inbox
// push (same as the in-process wires); a remote send copies the packet
// into the peer's send queue as one data frame and returns the packet —
// and any pooled payload — to the sending rank's cache, so the
// per-process recycle balance holds. It returns before the frame reaches the kernel and
// waits only while the queue already holds a full window; a frame
// larger than the window passes once the queue is below it. Waking the
// writer costs a signal only when the queue was idle: a busy writer
// picks the frame up with its next batch.
func (t *TCPWire) Inject(p *Proc, dst machine.Rank, pkt *Packet) {
	if dst == t.self {
		t.w.inboxes[dst].Push(pkt)
		return
	}
	peer := t.peers[dst]
	peer.mu.Lock()
	if len(peer.pending) >= tcpSendWindow {
		t.windowStalls.Add(1)
		for len(peer.pending) >= tcpSendWindow {
			peer.space.Wait()
		}
	}
	idle := len(peer.pending) == 0 && !peer.writing
	n := dataHdrLen + len(pkt.Payload)
	b := binary.LittleEndian.AppendUint32(peer.pending, uint32(n-4))
	kind := kindMsg
	if pkt.pooled {
		kind = kindPooled
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, uint64(pkt.Tag))
	peer.pending = append(b, pkt.Payload...)
	peer.mu.Unlock()
	if idle {
		peer.work.Signal()
	}
	t.frames.Add(1)
	t.bytes.Add(uint64(n))
	p.cache.put(pkt)
}

// Flush blocks until every send queue of this process is empty and the
// last batch taken from it has been handed to the kernel (or, after a
// write failure, discarded).
func (t *TCPWire) Flush(*Proc) {
	for _, peer := range t.peers {
		if peer == nil {
			continue
		}
		peer.mu.Lock()
		for len(peer.pending) > 0 || peer.writing {
			peer.space.Wait()
		}
		peer.mu.Unlock()
	}
}

// writeLoop is one peer's writer: it takes everything queued, writes it
// with one conn.Write, and repeats until Finish marks the queue done and
// it is empty. The first failed write reports the fault (unless it is
// our own teardown closing the socket) and from then on batches are
// discarded rather than written, so the queue keeps draining and a rank
// waiting in Inject or Flush always wakes.
func (t *TCPWire) writeLoop(dst machine.Rank, peer *tcpPeer) {
	defer t.writers.Done()
	failed := false
	peer.mu.Lock()
	for {
		for len(peer.pending) == 0 {
			if peer.done {
				peer.mu.Unlock()
				return
			}
			peer.work.Wait()
		}
		batch := peer.pending
		peer.pending, peer.spare = peer.spare, nil
		peer.writing = true
		peer.mu.Unlock()
		if !failed {
			t.writes.Add(1)
			if _, err := peer.conn.Write(batch); err != nil {
				failed = true
				if !t.closing.Load() {
					t.w.WireFail(fmt.Errorf("tcp: send to rank %d: %w", dst, err))
				}
			}
		}
		peer.mu.Lock()
		peer.spare = batch[:0]
		peer.writing = false
		peer.space.Broadcast()
	}
}

// readLoop decodes one peer's stream into the local inbox. It is the
// only producer for the (local, src) channel, so pushes on it are
// ordered. Frames become packets, taken with their payload buffers from
// the reader's own cache and stamped with the receiving host's clock;
// the rank that recycles them returns them to its cache, with the
// payload only for a kindPooled frame, and the shared pool carries them
// back in batches. The clock is read once per buffer fill, after the
// fill and before the first header it holds, and every frame parsed
// from that fill carries the one stamp: stamps stay monotone on the
// channel and were all taken before their packets were pushed.
func (t *TCPWire) readLoop(src machine.Rank, peer *tcpPeer) {
	defer t.readers.Done()
	cache := poolCache{pool: &t.w.pool}
	defer func() { t.readerPoolOps.Add(cache.shared) }()
	br := bufio.NewReaderSize(peer.conn, 64<<10)
	var hdr [9]byte
	var arrive float64
	for {
		if br.Buffered() == 0 {
			if _, err := br.Peek(1); err != nil {
				t.readEnd(src, err)
				return
			}
			arrive = hostSince(t.w.epoch)
		}
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			t.readEnd(src, err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n < 1 || n > tcpMaxFrame {
			t.readEnd(src, fmt.Errorf("frame length %d out of range", n))
			return
		}
		kind, err := br.ReadByte()
		if err != nil {
			t.readEnd(src, err)
			return
		}
		switch kind {
		case kindMsg, kindPooled:
			if n < 9 {
				t.readEnd(src, fmt.Errorf("short data frame (%d bytes)", n))
				return
			}
			if _, err := io.ReadFull(br, hdr[1:9]); err != nil {
				t.readEnd(src, err)
				return
			}
			tag := Tag(binary.LittleEndian.Uint64(hdr[1:9]))
			payload := cache.getBuf(int(n - 9))
			if _, err := io.ReadFull(br, payload); err != nil {
				t.readEnd(src, err)
				return
			}
			pkt := cache.getPkt()
			pkt.Src = src
			pkt.Tag = tag
			pkt.Arrive = arrive
			pkt.Payload = payload
			pkt.pooled = kind == kindPooled
			t.w.inboxes[t.self].Push(pkt)
		case kindGoodbye:
			// The goodbye is the stream's last frame: its sender
			// half-closes right after it. So the stream's end — EOF, or
			// this process tearing the socket down — is clean, and a
			// malformed goodbye or a byte past it is corruption.
			if n != 1 {
				t.readEnd(src, fmt.Errorf("goodbye frame of %d bytes, want 1", n))
			} else if _, err := br.ReadByte(); err == nil {
				t.readEnd(src, errors.New("data after goodbye"))
			}
			return
		default:
			t.readEnd(src, fmt.Errorf("unknown frame kind %d", kind))
			return
		}
	}
}

// readEnd reports a reader's exit before a clean goodbye: while the run
// is live it is a wire fault that poisons the local ranks; once this
// process tears its sockets down it is expected.
func (t *TCPWire) readEnd(src machine.Rank, err error) {
	if t.closing.Load() {
		return
	}
	t.w.WireFail(fmt.Errorf("tcp: stream from rank %d: %w", src, err))
}

// Finish ends the run's participation in the mesh. On a clean run it
// queues a goodbye behind whatever each peer's queue still holds, joins
// the writers, half-closes the streams, and blocks until every peer's
// goodbye has arrived — the distributed analogue of joining the rank
// goroutines, which also keeps our inbox absorbing any late traffic
// peers were still sending. On a failed run it slams the connections
// first, so remote readers observe a reset and unwind their ranks and a
// writer blocked in the kernel returns; the writers are joined either
// way.
func (t *TCPWire) Finish() error {
	if t.w == nil || t.w.topo.WorldSize() == 1 {
		return nil
	}
	failed := t.w.failed.Load()
	if failed {
		t.closing.Store(true)
		t.closeAll()
	}
	for _, peer := range t.peers {
		if peer == nil {
			continue
		}
		peer.mu.Lock()
		if !failed {
			peer.pending = append(binary.LittleEndian.AppendUint32(peer.pending, 1), kindGoodbye)
			t.frames.Add(1)
			t.bytes.Add(4 + 1)
		}
		peer.done = true
		peer.mu.Unlock()
		peer.work.Signal()
	}
	t.writers.Wait()
	// A write that failed while draining has reported itself through
	// WireFail, which Run returns; such a run ends like any failed one.
	if !t.w.failed.Load() {
		for _, peer := range t.peers {
			if peer == nil {
				continue
			}
			if tc, ok := peer.conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}
		t.readers.Wait()
	}
	t.closing.Store(true)
	t.closeAll()
	t.readers.Wait()
	return nil
}

// Metrics reports what this process's send queues carried, and the
// readers' shared-pool acquisitions. Run stores it in Report.Wire after
// Finish, when every writer and reader has exited.
func (t *TCPWire) Metrics() obs.Snapshot {
	return obs.Snapshot{Counters: map[string]uint64{
		"wire.tcp.frames":           t.frames.Load(),
		"wire.tcp.bytes":            t.bytes.Load(),
		"wire.tcp.writes":           t.writes.Load(),
		"wire.tcp.window_stalls":    t.windowStalls.Load(),
		"transport.pool.shared_ops": t.readerPoolOps.Load(),
	}}
}

// closeAll tears down every socket this wire owns.
func (t *TCPWire) closeAll() {
	for _, peer := range t.peers {
		if peer != nil && peer.conn != nil {
			peer.conn.Close()
		}
	}
	for _, conn := range t.rdvConns {
		if conn != nil {
			conn.Close()
		}
	}
	if t.rdvLn != nil {
		t.rdvLn.Close()
	}
}

// writePreamble/readPreamble exchange the connection-level magic and
// version that guard every stream.
func writePreamble(conn net.Conn) error {
	var b [5]byte
	binary.LittleEndian.PutUint32(b[0:4], tcpMagic)
	b[4] = tcpVersion
	_, err := conn.Write(b[:])
	return err
}

func readPreamble(conn net.Conn) error {
	var b [5]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return err
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != tcpMagic {
		return fmt.Errorf("bad magic %#x (not a YGM wire peer)", m)
	}
	if b[4] != tcpVersion {
		return fmt.Errorf("wire version %d, this build speaks %d", b[4], tcpVersion)
	}
	return nil
}

// writeFrame writes one length-prefixed frame.
func writeFrame(conn net.Conn, body []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(body)
	return err
}

// readCtrlFrame reads one length-prefixed handshake frame body (hello,
// roster, peer hello, ready, go). The length comes from a connection
// nothing has vouched for yet, so it is checked before anything is
// allocated for it, against a cap that follows the world: the roster is
// the largest control frame — one host:port string per rank — so 64
// bytes of fixed fields plus 64 per rank, and never under 4 KiB. Only
// data frames may reach tcpMaxFrame.
func (t *TCPWire) readCtrlFrame(conn net.Conn) ([]byte, error) {
	limit := max(4<<10, 64+64*t.w.topo.WorldSize())
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if uint64(n) > uint64(limit) {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	return body, nil
}
