package main

import (
	"encoding/binary"
	"strconv"
	"time"

	"ygm/internal/apps"
	"ygm/internal/collective"
	"ygm/internal/container"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

type kind int

const (
	kStream kind = iota
	kQuiesce
	kWordcount
	kBFS
)

// workload is one set of inputs the benchmark runs. World and input
// sizes are fixed constants — not derived from the host's core count —
// so numbers are comparable across hosts. They are chosen for a 2-core
// box: in-process worlds are goroutine ranks under GOMAXPROCS = nproc,
// and tcp worlds are exactly 2 rank processes, so threads and processes
// stay within the cores and every remote byte crosses the host loopback.
type workload struct {
	Name string
	Why  string

	kind         kind
	wire         string
	nodes, cores int
	exchange     ygm.ExchangeStyle
	capacity     int
	// size is sends per rank (stream), cycles (quiesce), total words
	// (wordcount) or graph scale (bfs); quickSize is the -quick value.
	size, quickSize int
}

const (
	wordVocab     = 5000
	wordTopK      = 10
	bfsEdgeFactor = 8
	// quiesceBurst is the number of stamped sends in one quiesce cycle.
	quiesceBurst = 8
)

var workloads = []workload{
	{
		Name: "stream_local",
		Why:  "rate: 16M 8-byte sends at capacity 1024 on the local wire, so coalesce, route and dispatch in ygm do nearly all the work",
		kind: kStream, wire: "local", nodes: 2, cores: 2, exchange: ygm.LazyExchange, capacity: 1024,
		size: 4 << 20, quickSize: 400 << 10,
	},
	{
		Name: "quiesce_local",
		Why:  "latency: 20000 cycles of 8 sends + WaitEmpty, so termination detection and the inbox park/wake path dominate and coalescing is bypassed",
		kind: kQuiesce, wire: "local", nodes: 2, cores: 2, exchange: ygm.LazyExchange, capacity: 1024,
		size: 20000, quickSize: 2000,
	},
	{
		Name: "wordcount_local",
		Why:  "whole program: container.Counter over 16M words, so container, codec and the owner hash map do most of the work",
		kind: kWordcount, wire: "local", nodes: 2, cores: 2, exchange: ygm.LazyExchange, capacity: 4096,
		size: 16 << 20, quickSize: 1600 << 10,
	},
	{
		Name: "stream_tcp",
		Why:  "packet rate: 2 OS processes at capacity 16, so ~100-byte frames make the per-packet lock and write syscall of the tcp wire the cost",
		kind: kStream, wire: "tcp", nodes: 2, cores: 1, exchange: ygm.LazyExchange, capacity: 16,
		size: 2 << 20, quickSize: 200 << 10,
	},
	{
		Name: "wordcount_tcp",
		Why:  "bandwidth: the same wire under a whole program at capacity 4096 (~32 KiB frames), where a per-packet saving is bypassed and copies show",
		kind: kWordcount, wire: "tcp", nodes: 2, cores: 1, exchange: ygm.LazyExchange, capacity: 4096,
		size: 16 << 20, quickSize: 1600 << 10,
	},
	{
		Name: "bfs_sim_2k",
		Why:  "whole program at 2048 simulated ranks: graph500 BFS on the round mailbox, sparse inboxes, the M:N scheduler and 3-hop NLNR paths",
		kind: kBFS, wire: "sim", nodes: 64, cores: 32, exchange: ygm.RoundExchange, capacity: 1024,
		size: 14, quickSize: 11,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scheduled says whether transport.Run puts this world under the M:N
// rank scheduler: its default does on simulated wires above 1024 ranks.
func (w *workload) scheduled() bool { return w.wire == "sim" && w.nodes*w.cores > 1024 }

func (w *workload) topo() machine.Topology { return machine.New(w.nodes, w.cores) }

func (w *workload) sizeFor(quick bool) int {
	if quick {
		return w.quickSize
	}
	return w.size
}

// ops is the number of application operations one repetition attempts:
// one mailbox send, one quiesce cycle, one word, or one input edge.
func (w *workload) ops(quick bool) uint64 {
	n, world := w.sizeFor(quick), w.nodes*w.cores
	switch w.kind {
	case kStream:
		return uint64(n) * uint64(world)
	case kBFS:
		return uint64(bfsEdgesPerRank(n, world)) * uint64(world)
	default:
		return uint64(n)
	}
}

func bfsEdgesPerRank(scale, world int) int { return (bfsEdgeFactor << uint(scale)) / world }

func bfsConfig(scale, world int, seed int64) apps.BFSConfig {
	return apps.BFSConfig{
		Mailbox:      ygm.Options{Scheme: machine.NLNR, Capacity: 1024, Exchange: ygm.RoundExchange},
		Scale:        scale,
		EdgesPerRank: bfsEdgesPerRank(scale, world),
		Params:       graph.Graph500,
		Seed:         seed,
		Root:         0,
	}
}

// rankSlot is what one rank's body leaves behind for the child to
// report. Each rank writes only its own slot.
type rankSlot struct {
	bodyStart time.Duration // first statement of the body, since process start
	t0, t1    time.Duration // timed region on this rank

	sends, delivered uint64
	genSum, recvSum  uint64
	mailbox          ygm.Stats
	waitEmpties      uint64
	handlerNS        float64 // traced runs: timeHandler's figure

	cycleUS   []float64 // quiesce: rank 0's cycle latencies
	deliverUS []float64 // quiesce: send→handler latencies seen here

	distinct, digest uint64 // wordcount

	visited  uint64 // bfs
	levels   int
	distHash uint64
	simT     float64

	_ [64]byte // keep neighbouring ranks' slots off one cache line
}

// run is the state one child process shares among its rank goroutines.
type run struct {
	w     *workload
	size  int
	seed  int64
	tr    *Tracer // nil on untraced repetitions
	slots []rankSlot
	// leader is the rank that snapshots process-wide counters at the
	// region boundaries: rank 0 in-process, the hosted rank under tcp.
	leader     int
	start, end snapshot
}

// splitmix is the benchmark's input generator: inputs depend on the
// seed and the rank only.
type splitmix uint64

func newRng(seed int64, rank int) splitmix {
	return splitmix(mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(rank) + 1))
}

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix64(uint64(*s))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampleBlock is the number of consecutive operations one sampled span
// covers. Timing a single 20 ns operation measures the clock read (cold
// in cache after 63 untimed operations), not the operation; a block
// amortizes the two reads over sampleBlock operations.
const sampleBlock = 64

// sampledBlock picks a pseudo-random one in sampleWeight of the blocks,
// so the sample cannot alias with the flush period.
func sampledBlock(block int) bool { return uint64(block)*0x9e3779b97f4a7c15>>58 == 0 }

// startRegion lines the ranks up and opens the timed region: the
// leader snapshots the process-wide counters, every rank stamps t0.
func (c *run) startRegion(p *transport.Proc, comm *collective.Comm) {
	comm.Barrier()
	if int(p.Rank()) == c.leader {
		c.start = takeSnapshot()
	}
	c.slots[p.Rank()].t0 = sinceStart()
}

// endRegion closes it: every rank stamps t1 as its last operation
// returns, and once all have, the leader snapshots again.
func (c *run) endRegion(p *transport.Proc, comm *collective.Comm) {
	c.slots[p.Rank()].t1 = sinceStart()
	comm.Barrier()
	if int(p.Rank()) == c.leader {
		c.end = takeSnapshot()
	}
}

func (c *run) waitEmpty(me int, mb ygm.Box) {
	c.slots[me].waitEmpties++
	if c.tr != nil {
		c.tr.begin(me, "app.waitempty", false)
		defer c.tr.end(me, 1)
	}
	mb.WaitEmpty()
}

// handlerCalls is how many synthetic deliveries timeHandler makes.
const handlerCalls = 1 << 18

// timeHandler measures a handler from outside the mailbox: the mean of
// handlerCalls direct calls on an 8-byte payload. A handler of a few
// nanoseconds cannot be timed call by call inside a run — two clock
// reads cost more than the call — so the traced run times a second
// instance of it, with its own state, before the timed region opens.
func timeHandler(h ygm.Handler) float64 {
	var payload [8]byte
	t := sinceStart()
	for i := 0; i < handlerCalls; i++ {
		binary.LittleEndian.PutUint64(payload[:], uint64(t)+uint64(i))
		h(nil, payload[:])
	}
	return float64(sinceStart()-t) / handlerCalls
}

func (c *run) mailboxOptions() []ygm.Option {
	return []ygm.Option{
		ygm.WithExchange(c.w.exchange),
		ygm.WithScheme(machine.NLNR),
		ygm.WithCapacity(c.w.capacity),
	}
}

func (c *run) body(p *transport.Proc) error {
	c.slots[p.Rank()].bodyStart = sinceStart()
	switch c.w.kind {
	case kStream:
		return c.stream(p)
	case kQuiesce:
		return c.quiesce(p)
	case kWordcount:
		return c.wordcount(p)
	default:
		return c.bfs(p)
	}
}

// stream: every rank sends size 8-byte messages to uniformly random
// ranks, then waits for quiescence. The handler folds a checksum.
func (c *run) stream(p *transport.Proc) error {
	me, world := int(p.Rank()), uint64(p.WorldSize())
	s, tr := &c.slots[me], c.tr
	handler := func(s *rankSlot) ygm.Handler {
		return func(_ ygm.Sender, payload []byte) { s.recvSum += binary.LittleEndian.Uint64(payload) }
	}
	mb := ygm.New(p, handler(s), c.mailboxOptions()...)
	comm := collective.World(p)
	rng := newRng(c.seed, me)
	var buf [8]byte
	var xs [sampleBlock]uint64
	if tr != nil {
		s.handlerNS = timeHandler(handler(new(rankSlot)))
	}
	c.startRegion(p, comm)
	for i := 0; i < c.size; {
		if tr != nil && i+sampleBlock <= c.size && sampledBlock(i/sampleBlock) {
			// A sampled block generates its inputs first and sends them
			// second, so each half is one span.
			tr.begin(me, "app.gen", true)
			for k := range xs {
				xs[k] = rng.next()
				s.genSum += xs[k]
			}
			tr.end(me, sampleWeight)
			tr.begin(me, "app.send", true)
			for _, x := range xs {
				binary.LittleEndian.PutUint64(buf[:], x)
				mb.Send(machine.Rank(x%world), buf[:])
			}
			tr.end(me, sampleWeight)
			i += sampleBlock
			continue
		}
		for end := min(i+sampleBlock, c.size); i < end; i++ {
			x := rng.next()
			binary.LittleEndian.PutUint64(buf[:], x)
			s.genSum += x
			mb.Send(machine.Rank(x%world), buf[:])
		}
	}
	c.waitEmpty(me, mb)
	c.endRegion(p, comm)
	s.mailbox = mb.Stats()
	s.sends, s.delivered = s.mailbox.Sends, s.mailbox.Delivered
	return nil
}

// quiesce: size cycles of quiesceBurst stamped sends to other ranks
// plus WaitEmpty. Rank 0 times each cycle; every handler times the
// send→handler latency from the stamp in the payload (one process, one
// clock).
func (c *run) quiesce(p *transport.Proc) error {
	me, world := int(p.Rank()), p.WorldSize()
	s, tr := &c.slots[me], c.tr
	s.deliverUS = make([]float64, 0, quiesceBurst*c.size*world)
	if me == 0 {
		s.cycleUS = make([]float64, 0, c.size)
	}
	handler := func(s *rankSlot) ygm.Handler {
		return func(_ ygm.Sender, payload []byte) {
			stamp := binary.LittleEndian.Uint64(payload)
			s.recvSum += stamp
			s.deliverUS = append(s.deliverUS, float64(sinceStart()-time.Duration(stamp))/1e3)
		}
	}
	mb := ygm.New(p, handler(s), c.mailboxOptions()...)
	comm := collective.World(p)
	rng := newRng(c.seed, me)
	var buf [8]byte
	if tr != nil {
		s.handlerNS = timeHandler(handler(&rankSlot{deliverUS: make([]float64, 0, handlerCalls)}))
	}
	c.startRegion(p, comm)
	for i := 0; i < c.size; i++ {
		t := sinceStart()
		sample := tr != nil && sampledBlock(i)
		if sample {
			tr.begin(me, "app.send", true) // the cycle's burst, stamping included
		}
		for k := 0; k < quiesceBurst; k++ {
			dst := (me + 1 + int(rng.next()%uint64(world-1))) % world
			stamp := uint64(sinceStart())
			binary.LittleEndian.PutUint64(buf[:], stamp)
			s.genSum += stamp
			mb.Send(machine.Rank(dst), buf[:])
		}
		if sample {
			tr.end(me, sampleWeight)
		}
		c.waitEmpty(me, mb)
		if me == 0 {
			s.cycleUS = append(s.cycleUS, float64(sinceStart()-t)/1e3)
		}
	}
	c.endRegion(p, comm)
	s.mailbox = mb.Stats()
	s.sends, s.delivered = s.mailbox.Sends, s.mailbox.Delivered
	return nil
}

// wordcount is examples/wordcount inside the timed region: a skewed
// synthetic word stream into container.Counter, then Size, TopK and an
// order-independent digest of the whole table.
func (c *run) wordcount(p *transport.Proc) error {
	me, world := int(p.Rank()), p.WorldSize()
	s, tr := &c.slots[me], c.tr
	eng := container.NewEngine(p, c.mailboxOptions()...)
	cnt := container.NewCounter(eng, nil)
	comm := collective.World(p)
	words := uint64(c.size)
	lo, hi := words*uint64(me)/uint64(world), words*uint64(me+1)/uint64(world)
	key := make([]byte, 0, 16)
	var keys [sampleBlock][]byte
	for k := range keys {
		keys[k] = make([]byte, 0, 16)
	}
	c.startRegion(p, comm)
	for g := lo; g < hi; {
		if tr != nil && g+sampleBlock <= hi && sampledBlock(int(g/sampleBlock)) {
			tr.begin(me, "app.gen", true)
			for k := range keys {
				keys[k] = appendWord(keys[k][:0], wordID(c.seed, g+uint64(k), wordVocab))
			}
			tr.end(me, sampleWeight)
			tr.begin(me, "app.send", true)
			for k := range keys {
				cnt.AsyncIncr(keys[k])
			}
			tr.end(me, sampleWeight)
			g += sampleBlock
			continue
		}
		for end := min(g+sampleBlock, hi); g < end; g++ {
			key = appendWord(key[:0], wordID(c.seed, g, wordVocab))
			cnt.AsyncIncr(key)
		}
	}
	if tr != nil {
		tr.begin(me, "app.query", false)
	}
	s.distinct = cnt.Size()
	cnt.TopK(wordTopK)
	var local uint64
	cnt.ForAll(func(word string, count uint64) { local += wordDigest(word, count) })
	if tr != nil {
		tr.begin(me, "app.collective", false)
	}
	s.digest = comm.AllreduceU64([]uint64{local}, collective.SumU64)[0]
	if tr != nil {
		tr.end(me, 1)
		tr.end(me, 1)
	}
	c.endRegion(p, comm)
	s.mailbox = eng.Mailbox().Stats()
	s.sends, s.delivered = s.mailbox.Sends, s.mailbox.Delivered
	s.waitEmpties = 3 // Size, TopK and ForAll each quiesce once
	return nil
}

// wordID maps a global word index to a vocabulary id with a triangular
// skew toward low ids, as examples/wordcount does.
func wordID(seed int64, g, vocab uint64) uint64 {
	h := mix64(uint64(seed) + g*0x9e3779b97f4a7c15)
	a, b := (h&0xffffffff)%vocab, (h>>32)%vocab
	if b < a {
		a = b
	}
	return a
}

func appendWord(dst []byte, id uint64) []byte {
	return strconv.AppendUint(append(dst, 'w'), id, 10)
}

// wordDigest mixes one table entry; entries sum to an order-independent
// digest of the whole key→count table.
func wordDigest(word string, count uint64) uint64 {
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(word); i++ {
		h ^= uint64(word[i])
		h *= 1099511628211
	}
	return mix64(h ^ (count * 0x9e3779b97f4a7c15))
}

// bfs runs apps.BFS as cmd/graph500 does. There is no start barrier and
// the simulated clock is read as BFS returns, so sim_s is the makespan
// cmd/graph500 would print.
func (c *run) bfs(p *transport.Proc) error {
	me, world := int(p.Rank()), p.WorldSize()
	s := &c.slots[me]
	if me == c.leader {
		c.start = takeSnapshot()
	}
	s.t0 = sinceStart()
	if c.tr != nil {
		c.tr.beginAt(me, "app.bfs", false, virtualNow(p))
	}
	res, err := apps.BFS(p, bfsConfig(c.size, world, c.seed))
	if c.tr != nil {
		c.tr.endAt(me, 1, virtualNow(p))
	}
	if err != nil {
		return err
	}
	s.simT = p.Now()
	c.endRegion(p, collective.World(p))
	s.visited, s.levels = res.Visited, res.Levels
	for l, d := range res.Dist {
		s.distHash += bfsDistHash(graph.GlobalID(uint64(l), world, me), d)
	}
	s.mailbox = res.Mailbox
	s.sends, s.delivered = s.mailbox.Sends, s.mailbox.Delivered
	s.waitEmpties = uint64(res.Levels) + 1 // the graph build, then one per level
	return nil
}

// virtualNow is the rank's simulated clock as a Duration, the time base
// of every span on the sim wire.
func virtualNow(p *transport.Proc) time.Duration { return time.Duration(p.Now() * 1e9) }

func bfsDistHash(v, dist uint64) uint64 { return mix64(v ^ mix64(dist+1)) }
