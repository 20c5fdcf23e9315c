package ygm

import (
	"testing"

	"ygm/internal/codec"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// benchWorkload runs an all-to-all counting workload through the given
// exchange style and reports host nanoseconds per application message —
// the *implementation* cost of the mailbox machinery (as opposed to the
// simulated times the figure benchmarks report).
func benchWorkload(b *testing.B, style ExchangeStyle, scheme machine.Scheme) {
	b.Helper()
	const msgsPerRank = 512
	topo := machine.New(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// The seed is fixed so every iteration runs the identical
		// workload: a per-iteration seed gives b.N calibration runs with
		// different message patterns, which makes ns/op unstable.
		_, err := transport.Run(transport.Config{
			Topo:  topo,
			Model: netsim.Quartz(),
			Seed:  12345,
		}, func(p *transport.Proc) error {
			mb := New(p, func(s Sender, payload []byte) {},
				WithScheme(scheme),
				WithCapacity(256),
				WithExchange(style))
			rng := p.Rng()
			for k := 0; k < msgsPerRank; k++ {
				mb.Send(machine.Rank(rng.Intn(p.WorldSize())), encodeU64(uint64(k)))
			}
			mb.WaitEmpty()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*msgsPerRank*topo.WorldSize()), "host-ns/msg")
}

func BenchmarkMailboxLazyNLNR(b *testing.B)    { benchWorkload(b, LazyExchange, machine.NLNR) }
func BenchmarkMailboxRoundNLNR(b *testing.B)   { benchWorkload(b, RoundExchange, machine.NLNR) }
func BenchmarkMailboxLazyNoRoute(b *testing.B) { benchWorkload(b, LazyExchange, machine.NoRoute) }
func BenchmarkMailboxRoundNodeRemote(b *testing.B) {
	benchWorkload(b, RoundExchange, machine.NodeRemote)
}

// BenchmarkRecordEncode measures the coalescing-buffer record append.
func BenchmarkRecordEncode(b *testing.B) {
	payload := make([]byte, 16)
	b.ReportAllocs()
	var w codec.Writer
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<16 {
			w.Reset()
		}
		appendRecord(&w, kindUnicast, machine.Rank(i%1024), payload)
	}
}

// BenchmarkRecordDecode measures packet-record parsing.
func BenchmarkRecordDecode(b *testing.B) {
	var w codec.Writer
	payload := make([]byte, 16)
	for i := 0; i < 64; i++ {
		appendRecord(&w, kindUnicast, machine.Rank(i), payload)
	}
	blob := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := codec.NewReader(blob)
		for r.Remaining() > 0 {
			if _, err := parseRecord(r, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}
