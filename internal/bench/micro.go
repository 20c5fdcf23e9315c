package bench

import (
	"encoding/binary"
	"runtime"
	"testing"

	"ygm/internal/container"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// MicroBench is a named coalescing-path workload runnable through
// testing.Benchmark, so cmd/ygm-bench can measure host-side ns/op and
// allocs/op outside `go test` and commit them as a regression baseline.
// The workloads mirror the Benchmark* functions in internal/ygm: an
// all-to-all counting exchange on a 4x4 simulated cluster, timed in host
// nanoseconds (the implementation cost, not simulated seconds).
type MicroBench struct {
	Name string
	Run  func(b *testing.B)
}

// MicroBenches returns the baseline micro-benchmark suite in fixed order.
func MicroBenches() []MicroBench {
	return []MicroBench{
		{"MailboxLazyNLNR", func(b *testing.B) { microWorkload(b, ygm.LazyExchange, machine.NLNR) }},
		{"MailboxRoundNLNR", func(b *testing.B) { microWorkload(b, ygm.RoundExchange, machine.NLNR) }},
		{"MailboxLazyNoRoute", func(b *testing.B) { microWorkload(b, ygm.LazyExchange, machine.NoRoute) }},
		{"MailboxRoundNodeRemote", func(b *testing.B) { microWorkload(b, ygm.RoundExchange, machine.NodeRemote) }},
		{"MailboxSyncNLNR", func(b *testing.B) { microWorkload(b, ygm.SyncExchange, machine.NLNR) }},
		{"ContainerCounterLazyNLNR", func(b *testing.B) { containerWorkload(b, ygm.LazyExchange, machine.NLNR) }},
		{"ContainerCounterRoundNoRoute", func(b *testing.B) { containerWorkload(b, ygm.RoundExchange, machine.NoRoute) }},
		{"TreeBarrierSparse1k", func(b *testing.B) { largeWorldWorkload(b, 1024) }},
		{"TreeBarrierSched4k", func(b *testing.B) { largeWorldWorkload(b, 4096) }},
	}
}

// largeWorldWorkload pins the large-world hot path the M:N scheduler
// and the per-sender-stateless inboxes own: world construction, a
// binomial broadcast, and a tree barrier at `ranks` ranks, all
// multiplexed onto a GOMAXPROCS worker pool. Its allocs/op gates the
// O(P) setup property — a regression back toward O(P²) per-channel
// state moves this number by orders of magnitude, not percent.
func largeWorldWorkload(b *testing.B, ranks int) {
	topo := machine.New(ranks/32, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := transport.Run(transport.NewConfig(topo,
			transport.WithModel(netsim.Quartz()),
			transport.WithSeed(12345),
			transport.WithWorkers(runtime.GOMAXPROCS(0)),
		), func(p *transport.Proc) error {
			treeBcast(p, transport.TagUser)
			treeBarrier(p, transport.TagUser+1)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// containerWorkload is the distributed-container counterpart of
// microWorkload: every rank streams 512 skewed word increments into a
// container.Counter and the engine barrier drains the world — the
// steady-state AsyncIncr hot path plus the container dispatch layer.
func containerWorkload(b *testing.B, style ygm.ExchangeStyle, scheme machine.Scheme) {
	const incrsPerRank = 512
	topo := machine.New(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := transport.Run(transport.NewConfig(topo,
			transport.WithModel(netsim.Quartz()),
			transport.WithSeed(12345),
		), func(p *transport.Proc) error {
			eng := container.NewEngine(p,
				ygm.WithScheme(scheme),
				ygm.WithCapacity(256),
				ygm.WithExchange(style))
			cnt := container.NewCounter(eng, nil)
			rng := p.Rng()
			var key [8]byte
			for k := 0; k < incrsPerRank; k++ {
				binary.LittleEndian.PutUint64(key[:], uint64(rng.Intn(64)))
				cnt.AsyncIncr(key[:])
			}
			eng.Barrier()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// microWorkload is the shared workload body: every rank sends 512
// uniformly random unicasts and the world drains to quiescence. The seed
// is fixed so every iteration measures the identical message pattern.
func microWorkload(b *testing.B, style ygm.ExchangeStyle, scheme machine.Scheme) {
	const msgsPerRank = 512
	topo := machine.New(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := transport.Run(transport.NewConfig(topo,
			transport.WithModel(netsim.Quartz()),
			transport.WithSeed(12345),
		), func(p *transport.Proc) error {
			mb := ygm.New(p, func(s ygm.Sender, payload []byte) {},
				ygm.WithScheme(scheme),
				ygm.WithCapacity(256),
				ygm.WithExchange(style))
			rng := p.Rng()
			var payload [8]byte
			for k := 0; k < msgsPerRank; k++ {
				binary.LittleEndian.PutUint64(payload[:], uint64(k))
				mb.Send(machine.Rank(rng.Intn(p.WorldSize())), payload[:])
			}
			mb.WaitEmpty()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
