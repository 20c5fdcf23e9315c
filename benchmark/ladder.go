package main

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/container"
	"ygm/internal/machine"
	"ygm/internal/obs"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// The ladder: one steady-state loop per layer, all set-up outside the
// timer, independent of any workload. Every "per" figure is the loop's
// wall time divided by the operations of all ranks together (the
// inverse of the aggregate rate), so ygm.lazy_nlnr_ns_per_msg is
// directly comparable with 1/ops_per_s of stream_local.

const (
	ladderName    = "ladder"     // in-process rungs, one child
	ladderTCPName = "ladder_tcp" // tcp rungs, two rank processes
	emptyTCPName  = "empty_tcp"  // empty body on two rank processes
)

// sink keeps the compiler from discarding the pure loops. Rank
// goroutines fold into it once, after their timed loop, never inside it.
var sink atomic.Uint64

type ladder struct {
	quick bool
	// slow divides every iteration count: the tcp rungs cost
	// microseconds per operation where the in-process ones cost tens of
	// nanoseconds, and share the loops.
	slow int
	vals map[string]float64
	err  error
}

// n scales a rung's iteration count for the wire and for -quick.
func (l *ladder) n(full int) int {
	full /= max(l.slow, 1)
	if l.quick {
		full /= 10
	}
	return max(full, 16)
}

func (l *ladder) set(name string, v float64, err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
	if !finite(v) {
		v = 0 // a rank that did not time the loop (only rank 0 does)
	}
	l.vals[name] = v
}

// timed runs a fresh world and returns the wall seconds rank 0 saw
// between the two barriers around the loop each rank's prepare built.
func timed(topo machine.Topology, wire transport.Wire, prepare func(p *transport.Proc, comm *collective.Comm) func()) (float64, error) {
	var elapsed time.Duration
	_, err := transport.Run(transport.NewConfig(topo, transport.WithWire(wire)), func(p *transport.Proc) error {
		comm := collective.World(p)
		loop := prepare(p, comm)
		comm.Barrier()
		t := sinceStart()
		loop()
		comm.Barrier()
		if p.Rank() == 0 {
			elapsed = sinceStart() - t
		}
		return nil
	})
	return elapsed.Seconds(), err
}

func runLadder(f *options) *procResult {
	l := &ladder{quick: f.quick, vals: make(map[string]float64)}
	l.codec()
	l.nextHop()
	l.inbox()
	l.counterAdd()
	l.setup()
	pair, quad := machine.New(2, 1), machine.New(2, 2)
	l.wireRungs("local", pair, func() transport.Wire { return transport.LocalWire{} })
	{
		n := l.n(200000)
		s, err := timed(pair, transport.SimWire{}, exchangeLoop(n, 64))
		l.set("transport.sim_stream_ns_per_pkt", s*1e9/float64(2*n), err)
	}
	l.collectives("local", quad, func() transport.Wire { return transport.LocalWire{} }, true)
	{
		n := l.n(10)
		s, err := timed(machine.New(64, 32), transport.SimWire{}, func(p *transport.Proc, comm *collective.Comm) func() {
			return func() {
				for i := 0; i < n; i++ {
					comm.Barrier()
				}
			}
		})
		l.set("collective.sim2k_barrier_host_ms", s*1e3/float64(n), err)
	}
	l.mailboxes(quad)
	l.containers(quad)
	l.serialBaselines(f.seed)
	res := &procResult{Ladder: l.vals}
	if l.err != nil {
		res.Err = l.err.Error()
	}
	return res
}

func (l *ladder) codec() {
	n := l.n(4 << 20)
	const batch = 4096
	w := codec.NewWriter(batch * 8)
	t := sinceStart()
	for i := 0; i < n; i += batch {
		w.Reset()
		for j := 0; j < batch; j++ {
			w.Byte(1)
			w.Uvarint(uint64(i + j))
			w.Uvarint(uint64(j & 15))
		}
	}
	l.set("codec.encode_ns_per_rec", float64(sinceStart()-t)/float64(n), nil)
	r := codec.NewReader(nil)
	var sum uint64
	t = sinceStart()
	for i := 0; i < n; i += batch {
		r.Reset(w.Bytes())
		for r.Remaining() > 0 {
			b, _ := r.Byte()
			u, _ := r.Uvarint()
			v, _ := r.Uvarint()
			sum += uint64(b) + u + v
		}
	}
	l.set("codec.decode_ns_per_rec", float64(sinceStart()-t)/float64(n), nil)
	sink.Add(sum)
}

func (l *ladder) nextHop() {
	n := l.n(16 << 20)
	topo := machine.New(64, 32)
	router := topo.NewRouter(machine.NLNR, 0)
	mask := uint64(topo.WorldSize() - 1)
	var sum, x uint64 = 0, 1
	t := sinceStart()
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += uint64(router.Next(machine.Rank(x >> 33 & mask)))
	}
	l.set("machine.next_hop_ns", float64(sinceStart()-t)/float64(n), nil)
	sink.Add(sum)
}

// inbox times Push→TryPop through a 4-rank inbox's rings: one producer
// pushing and popping on one goroutine (the uncontended cost), then
// three producer goroutines against one consumer. Producers keep at
// most window packets in flight, so the rings never spill into their
// overflow lists.
func (l *ladder) inbox() {
	const window = 8
	n := l.n(1 << 20)
	ib := transport.NewInbox(4)
	pkts := make([]transport.Packet, window)
	for i := range pkts {
		pkts[i] = transport.Packet{Src: 1, Tag: transport.TagUser}
	}
	t := sinceStart()
	for i := 0; i < n; i += window {
		for j := range pkts {
			ib.Push(&pkts[j])
		}
		for range pkts {
			ib.TryPop(transport.TagUser)
		}
	}
	l.set("transport.inbox_ns_per_pkt_p1", float64(sinceStart()-t)/float64(n), nil)
	n /= 4 // the contended loop is several times slower per packet

	ib = transport.NewInbox(4)
	var consumed [4]atomic.Uint64
	var wg sync.WaitGroup
	t = sinceStart()
	for src := 1; src <= 3; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			ring := make([]transport.Packet, 2*window)
			for i := 0; i < n; i++ {
				for uint64(i)-consumed[src].Load() >= window {
					runtime.Gosched()
				}
				pkt := &ring[i%len(ring)]
				*pkt = transport.Packet{Src: machine.Rank(src), Tag: transport.TagUser}
				ib.Push(pkt)
			}
		}(src)
	}
	for got := 0; got < 3*n; {
		pkt := ib.TryPop(transport.TagUser)
		if pkt == nil {
			runtime.Gosched()
			continue
		}
		consumed[pkt.Src].Add(1)
		got++
	}
	wg.Wait()
	l.set("transport.inbox_ns_per_pkt_p3", float64(sinceStart()-t)/float64(3*n), nil)
}

func (l *ladder) counterAdd() {
	n := l.n(32 << 20)
	c := obs.NewRegistry().Counter("bench")
	t := sinceStart()
	for i := 0; i < n; i++ {
		c.Add(uint64(i))
	}
	l.set("obs.counter_add_ns", float64(sinceStart()-t)/float64(n), nil)
	sink.Add(c.Value())
}

// setup times world construction and teardown alone: transport.Run with
// an empty body.
func (l *ladder) setup() {
	empty := func(*transport.Proc) error { return nil }
	measure := func(topo machine.Topology, wire transport.Wire, reps int) (float64, error) {
		ds := make([]float64, reps)
		for i := range ds {
			t := sinceStart()
			if _, err := transport.Run(transport.NewConfig(topo, transport.WithWire(wire)), empty); err != nil {
				return 0, err
			}
			ds[i] = (sinceStart() - t).Seconds()
		}
		return median(ds), nil
	}
	s, err := measure(machine.New(2, 2), transport.LocalWire{}, l.n(500))
	l.set("transport.setup_us_w4", s*1e6, err)
	s, err = measure(machine.New(64, 32), transport.SimWire{}, max(l.n(10), 3))
	l.set("transport.setup_ms_w2048", s*1e3, err)
}

// exchangeLoop is the raw wire rung on a two-rank world: each rank
// sends a window of pooled packets to its peer and receives the peer's
// window, n packets each way.
func exchangeLoop(n, size int) func(*transport.Proc, *collective.Comm) func() {
	const window = 8
	return func(p *transport.Proc, _ *collective.Comm) func() {
		peer := 1 - p.Rank()
		return func() {
			for i := 0; i < n; i += window {
				for k := 0; k < window; k++ {
					buf := p.AcquireBuf(size)
					binary.LittleEndian.PutUint64(buf, uint64(i+k))
					p.SendPooled(peer, transport.TagUser, buf)
				}
				for k := 0; k < window; k++ {
					p.Recycle(p.Recv(transport.TagUser))
				}
			}
		}
	}
}

func pingPongLoop(n int) func(*transport.Proc, *collective.Comm) func() {
	return func(p *transport.Proc, _ *collective.Comm) func() {
		peer := 1 - p.Rank()
		return func() {
			for i := 0; i < n; i++ {
				if p.Rank() == 0 {
					p.SendPooled(peer, transport.TagUser, p.AcquireBuf(64))
					p.Recycle(p.Recv(transport.TagUser))
				} else {
					p.Recycle(p.Recv(transport.TagUser))
					p.SendPooled(peer, transport.TagUser, p.AcquireBuf(64))
				}
			}
		}
	}
}

// wireRungs measures one backend on a two-rank, two-node world: small
// packet rate, round-trip latency and 64 KiB bandwidth.
func (l *ladder) wireRungs(prefix string, pair machine.Topology, wire func() transport.Wire) {
	n := l.n(200000)
	s, err := timed(pair, wire(), exchangeLoop(n, 64))
	l.set("transport."+prefix+"_stream_ns_per_pkt", s*1e9/float64(2*n), err)
	n = l.n(20000)
	s, err = timed(pair, wire(), pingPongLoop(n))
	l.set("transport."+prefix+"_pingpong_us", s*1e6/float64(n), err)
	n = l.n(4000)
	s, err = timed(pair, wire(), exchangeLoop(n, 64<<10))
	l.set("transport."+prefix+"_mb_per_s_64k", float64(2*n)*(64<<10)/1e6/s, err)
}

func (l *ladder) collectives(prefix string, topo machine.Topology, wire func() transport.Wire, allreduce bool) {
	n := l.n(10000)
	s, err := timed(topo, wire(), func(_ *transport.Proc, comm *collective.Comm) func() {
		return func() {
			for i := 0; i < n; i++ {
				comm.Barrier()
			}
		}
	})
	l.set("collective."+prefix+"_barrier_us", s*1e6/float64(n), err)
	if !allreduce {
		return
	}
	s, err = timed(topo, wire(), func(p *transport.Proc, comm *collective.Comm) func() {
		vals := []uint64{uint64(p.Rank())}
		return func() {
			var odd uint64
			for i := 0; i < n; i++ {
				odd += comm.AllreduceU64(vals, collective.SumU64)[0] & 1
			}
			sink.Add(odd)
		}
	})
	l.set("collective."+prefix+"_allreduce_us", s*1e6/float64(n), err)
}

// mailboxLoop streams n 8-byte messages per rank to uniformly random
// ranks through a mailbox built with opts and waits for quiescence; a
// synchronous mailbox exchanges once per capacity's worth of sends, as
// its applications do.
func mailboxLoop(n, capacity int, opts ...ygm.Option) func(*transport.Proc, *collective.Comm) func() {
	return func(p *transport.Proc, _ *collective.Comm) func() {
		var sum uint64
		mb := ygm.New(p, func(_ ygm.Sender, payload []byte) {
			sum += binary.LittleEndian.Uint64(payload)
		}, append(opts, ygm.WithCapacity(capacity))...)
		syncBox, _ := mb.(*ygm.SyncMailbox)
		rng := newRng(1, int(p.Rank()))
		world := uint64(p.WorldSize())
		var buf [8]byte
		return func() {
			for i := 0; i < n; i++ {
				x := rng.next()
				binary.LittleEndian.PutUint64(buf[:], x)
				mb.Send(machine.Rank(x%world), buf[:])
				if syncBox != nil && (i+1)%capacity == 0 {
					syncBox.Exchange()
				}
			}
			mb.WaitEmpty()
			sink.Add(sum)
		}
	}
}

func (l *ladder) mailboxes(quad machine.Topology) {
	local := transport.LocalWire{}
	world := quad.WorldSize()
	n := l.n(512 << 10)
	for _, r := range []struct {
		name     string
		capacity int
		opts     []ygm.Option
	}{
		{"ygm.lazy_nlnr_ns_per_msg", 1024, []ygm.Option{ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR)}},
		{"ygm.lazy_noroute_ns_per_msg", 1024, []ygm.Option{ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NoRoute)}},
		{"ygm.lazy_cap16_ns_per_msg", 16, []ygm.Option{ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR)}},
		{"ygm.round_nlnr_ns_per_msg", 1024, []ygm.Option{ygm.WithExchange(ygm.RoundExchange), ygm.WithScheme(machine.NLNR)}},
		{"ygm.sync_nlnr_ns_per_msg", 1024, []ygm.Option{ygm.WithExchange(ygm.SyncExchange), ygm.WithScheme(machine.NLNR)}},
	} {
		s, err := timed(quad, local, mailboxLoop(n, r.capacity, r.opts...))
		l.set(r.name, s*1e9/float64(n*world), err)
	}

	nb := l.n(100000)
	s, err := timed(quad, local, func(p *transport.Proc, _ *collective.Comm) func() {
		var sum uint64
		mb := ygm.New(p, func(_ ygm.Sender, payload []byte) { sum += uint64(payload[0]) },
			ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR))
		var buf [8]byte
		return func() {
			for i := 0; i < nb; i++ {
				mb.Broadcast(buf[:])
			}
			mb.WaitEmpty()
			sink.Add(sum)
		}
	})
	l.set("ygm.bcast_ns_per_msg", s*1e9/float64(nb*world*(world-1)), err)

	ni := l.n(10000)
	s, err = timed(quad, local, func(p *transport.Proc, _ *collective.Comm) func() {
		mb := ygm.New(p, func(ygm.Sender, []byte) {}, ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR))
		return func() {
			for i := 0; i < ni; i++ {
				mb.WaitEmpty()
			}
		}
	})
	l.set("ygm.waitempty_idle_us", s*1e6/float64(ni), err)
	l.oneWay()
}

// oneWay splits the mailbox's cost by side, on a world where ranks do
// not outnumber cores: rank 0 sends n messages to rank 1 and rank 1 only
// receives. Each side's cost is its rank's busy time from
// transport.Report (wall time outside blocking receives) over n. With a
// core per rank busy time is CPU time — the attribution the traced
// 4-ranks-on-2-cores workloads cannot give, where a span's wall time
// includes whatever the rank spent descheduled.
func (l *ladder) oneWay() {
	n := l.n(2 << 20)
	rep, err := transport.Run(transport.NewConfig(machine.New(2, 1), transport.WithWire(transport.LocalWire{})),
		func(p *transport.Proc) error {
			var sum uint64
			mb := ygm.New(p, func(_ ygm.Sender, payload []byte) {
				sum += binary.LittleEndian.Uint64(payload)
			}, ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR), ygm.WithCapacity(1024))
			var buf [8]byte
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					binary.LittleEndian.PutUint64(buf[:], uint64(i))
					mb.Send(1, buf[:])
				}
			}
			mb.WaitEmpty()
			sink.Add(sum)
			return nil
		})
	var send, recv float64
	if err == nil {
		send, recv = rep.Ranks[0].Busy*1e9/float64(n), rep.Ranks[1].Busy*1e9/float64(n)
	}
	l.set("ygm.send_side_ns_per_msg", send, err)
	l.set("ygm.recv_side_ns_per_msg", recv, err)
}

func (l *ladder) containers(quad machine.Topology) {
	n := l.n(2 << 20)
	incr := func(p *transport.Proc, _ *collective.Comm) func() {
		eng := container.NewEngine(p, ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR), ygm.WithCapacity(4096))
		cnt := container.NewCounter(eng, nil)
		world, me := uint64(p.WorldSize()), uint64(p.Rank())
		lo, hi := uint64(n)*me/world, uint64(n)*(me+1)/world
		key := make([]byte, 0, 16)
		return func() {
			for g := lo; g < hi; g++ {
				key = appendWord(key[:0], wordID(1, g, wordVocab))
				cnt.AsyncIncr(key)
			}
			eng.Barrier()
		}
	}
	s, err := timed(quad, transport.LocalWire{}, incr)
	l.set("container.incr_ns_per_op", s*1e9/float64(n), err)
	s, err = timed(machine.New(1, 1), transport.LocalWire{}, incr)
	l.set("container.incr_1rank_ns_per_op", s*1e9/float64(n), err)

	nf := l.n(5000)
	s, err = timed(quad, transport.LocalWire{}, func(p *transport.Proc, _ *collective.Comm) func() {
		eng := container.NewEngine(p, ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR))
		cnt := container.NewCounter(eng, nil)
		fetch := cnt.RegisterFetcher(func(c *container.Counter, key, _ []byte, reply *codec.Writer) {
			reply.Uvarint(c.LocalCount(key))
		})
		key := make([]byte, 0, 16)
		var replied uint64 // replies run on this rank's goroutine, inside Barrier
		return func() {
			for i := 0; i < nf; i++ {
				key = appendWord(key[:0], uint64(i)%wordVocab)
				cnt.AsyncVisitFetch(fetch, key, nil, func(reply []byte) { replied += uint64(len(reply)) })
				eng.Barrier()
			}
			sink.Add(replied)
		}
	})
	l.set("container.fetch_us", s*1e6/float64(nf), err)
}

// serialBaselines times the plain single-threaded programs that are
// also the workloads' correctness references.
func (l *ladder) serialBaselines(seed int64) {
	words := l.n(4 << 20)
	t := sinceStart()
	ref := serialWordcount(seed, uint64(words))
	l.set("app.wordcount_serial_ops_per_s", float64(words)/(sinceStart()-t).Seconds(), nil)
	sink.Add(ref.digest)
	scale := 14
	if l.quick {
		scale = 11
	}
	cfg := bfsConfig(scale, 64, seed)
	t = sinceStart()
	bref := serialBFS(cfg, 64)
	l.set("app.bfs_serial_edges_per_s", float64(cfg.EdgesPerRank*64)/(sinceStart()-t).Seconds(), nil)
	sink.Add(bref.distHash)
}

// runLadderTCP is the tcp half of the ladder, run by two rank
// processes; only rank 0's values are read.
func runLadderTCP(topo machine.Topology, first transport.Wire, f *options) *procResult {
	l := &ladder{quick: f.quick, slow: 4, vals: make(map[string]float64)}
	// Wire values are single-use; the first comes from childMain, later
	// runs re-rendezvous on the same address in the same order in both
	// processes.
	next := first
	wire := func() transport.Wire {
		w := next
		next = nil
		if w == nil {
			w, l.err = f.wires.NewWire()
		}
		return w
	}
	l.wireRungs("tcp", topo, wire)
	l.collectives("tcp", topo, wire, false)
	var cycles []float64
	n := l.n(4000)
	_, err := timed(topo, wire(), func(p *transport.Proc, _ *collective.Comm) func() {
		mb := ygm.New(p, func(ygm.Sender, []byte) {}, ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR))
		peer := 1 - p.Rank()
		var buf [8]byte
		return func() {
			for i := 0; i < n; i++ {
				t := sinceStart()
				for k := 0; k < quiesceBurst; k++ {
					mb.Send(peer, buf[:])
				}
				mb.WaitEmpty()
				if p.Rank() == 0 {
					cycles = append(cycles, float64(sinceStart()-t)/1e3)
				}
			}
		}
	})
	sort.Float64s(cycles)
	p50, _ := percentile(cycles, 50)
	if len(cycles) == 0 {
		p50 = 0
	}
	l.set("ygm.tcp_quiesce_p50_us", p50, err)
	res := &procResult{Ladder: l.vals}
	if l.err != nil {
		res.Err = l.err.Error()
	}
	return res
}

// runEmpty is transport.Run with an empty body: what remains is process
// start, rendezvous, world construction and the goodbye.
func runEmpty(topo machine.Topology, wire transport.Wire) *procResult {
	res := &procResult{}
	if _, err := transport.Run(transport.NewConfig(topo, transport.WithWire(wire)), func(*transport.Proc) error { return nil }); err != nil {
		res.Err = err.Error()
	}
	return res
}
