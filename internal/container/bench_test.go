package container

import (
	"strconv"
	"testing"

	"ygm/internal/collective"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// BenchmarkCounterAdd times Counter.AsyncIncr plus the closing Barrier on
// the real-time local wire, 2x2 ranks, with the repository benchmark's
// wordcount mailbox settings. The two streams sit on either side of the
// combiner's bypass: skewed is wordcount's own input (triangular over
// 5,000 words, so most adds find their key pending), unique walks a
// 256 Ki-key universe by an odd stride, so no key comes back before its
// slot has been taken many times over and the table cannot help. World,
// engine and Counter are built, and every key is inserted once, before
// the timer starts.
func BenchmarkCounterAdd(b *testing.B) {
	const (
		vocab    = 5000
		universe = 256 << 10
		stride   = 40503
		seed     = 1
	)
	b.Run("skewed", func(b *testing.B) {
		benchCounterAdd(b, vocab, func(g uint64) uint64 {
			h := benchMix64(seed + g*0x9e3779b97f4a7c15)
			lo, hi := (h&0xffffffff)%vocab, (h>>32)%vocab
			return min(lo, hi)
		})
	})
	b.Run("unique", func(b *testing.B) {
		benchCounterAdd(b, universe, func(g uint64) uint64 { return g * stride % universe })
	})
}

func benchCounterAdd(b *testing.B, keys uint64, id func(g uint64) uint64) {
	topo := machine.New(2, 2)
	_, err := transport.Run(transport.NewConfig(topo, transport.WithWire(transport.LocalWire{})), func(p *transport.Proc) error {
		eng := NewEngine(p, ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NLNR), ygm.WithCapacity(4096))
		cnt := NewCounter(eng, nil)
		comm := collective.World(p)
		me, world := uint64(p.Rank()), uint64(p.WorldSize())
		key := make([]byte, 0, 16)
		for k := keys * me / world; k < keys*(me+1)/world; k++ {
			key = strconv.AppendUint(append(key[:0], 'w'), k, 10)
			cnt.AsyncIncr(key)
		}
		eng.Barrier()
		lo, hi := uint64(b.N)*me/world, uint64(b.N)*(me+1)/world
		comm.Barrier()
		if me == 0 {
			b.ResetTimer()
		}
		for g := lo; g < hi; g++ {
			key = strconv.AppendUint(append(key[:0], 'w'), id(g), 10)
			cnt.AsyncIncr(key)
		}
		eng.Barrier()
		if me == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func benchMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
