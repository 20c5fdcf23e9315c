// Word counting on the distributed Counter container: the canonical
// owner-computes workload. Every rank streams its share of a synthetic
// skewed word stream into container.Counter with fire-and-forget
// AsyncIncr, then the collective queries answer the aggregate questions:
// Size (distinct words), TopK (heavy hitters), and an order-independent
// digest of the full key→count table.
//
// The word stream is derived from global word indices, so the counts —
// and therefore the digest and top-K list — are identical no matter how
// the work is distributed or which wire carries it:
//
//	go run ./examples/wordcount -words 200000                  # simulated cluster
//	go run ./examples/wordcount -words 200000 -wire=local      # in-process, real time
//	go run ./examples/wordcount -words 200000 -wire=tcp -spawn # 4 OS processes
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"strconv"

	"ygm/internal/collective"
	"ygm/internal/container"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/wirecli"
	"ygm/internal/ygm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wordcount", flag.ContinueOnError)
	nodes := fs.Int("nodes", 2, "compute nodes")
	cores := fs.Int("cores", 2, "cores per node")
	words := fs.Int("words", 1<<20, "total words streamed across all ranks")
	vocab := fs.Int("vocab", 5000, "vocabulary size")
	topk := fs.Int("topk", 10, "heavy hitters to report")
	mailbox := fs.Int("mailbox", 4096, "mailbox capacity (records)")
	seed := fs.Int64("seed", 42, "word stream seed")
	var wires wirecli.Flags
	wires.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	world := *nodes * *cores
	if err := wires.Validate(world); err != nil {
		return err
	}
	if done, err := wires.Launch(world, args); done {
		return err
	}
	wire, err := wires.NewWire()
	if err != nil {
		return err
	}

	var distinct, digest uint64
	var top []container.KeyCount
	report, err := transport.Run(transport.NewConfig(machine.New(*nodes, *cores),
		transport.WithSeed(*seed),
		transport.WithWire(wire),
	), func(p *transport.Proc) error {
		eng := container.NewEngine(p,
			ygm.WithExchange(ygm.LazyExchange),
			ygm.WithCapacity(*mailbox),
		)
		cnt := container.NewCounter(eng, nil)

		// This rank's contiguous slice of the global word index space.
		// Each index maps to a word independently of the slicing, so any
		// world size and any wire produce the same global counts.
		rank, ws := uint64(p.Rank()), uint64(p.WorldSize())
		key := make([]byte, 0, 16)
		for g := uint64(*words) * rank / ws; g < uint64(*words)*(rank+1)/ws; g++ {
			key = strconv.AppendUint(append(key[:0], 'w'), wordID(*seed, g, uint64(*vocab)), 10)
			cnt.AsyncIncr(key)
		}
		n := cnt.Size() // includes the quiescence barrier
		k := cnt.TopK(*topk)

		// Order-independent digest of the whole table: each shard mixes
		// its entries, the mixes sum globally. Equal digests across wires
		// mean equal key→count tables, not just equal headline numbers.
		var local uint64
		cnt.ForAll(func(word string, count uint64) {
			h := fnv.New64a()
			h.Write([]byte(word))
			local += mix64(h.Sum64() ^ (count * 0x9e3779b97f4a7c15))
		})
		d := collective.World(p).AllreduceU64([]uint64{local}, collective.SumU64)[0]
		if p.Rank() == 0 {
			distinct, digest, top = n, d, k
		}
		return nil
	})
	if err != nil || !wires.IsRoot() {
		return err
	}
	fmt.Fprintf(stdout, "wordcount: %d words over %d ranks (%s wire), vocab %d\n",
		*words, world, wires.Wire, *vocab)
	fmt.Fprintf(stdout, "distinct %d\ndigest %016x\ntop %d words:\n", distinct, digest, len(top))
	for _, kc := range top {
		fmt.Fprintf(stdout, "  %-12s x%d\n", kc.Key, kc.Count)
	}
	if !report.Wall {
		tot := report.Totals()
		fmt.Fprintf(stdout, "\nsimulated time %.1f us; %d remote packets averaging %.0f B\n",
			report.Makespan()*1e6, tot.DataRemoteMsgs, tot.AvgDataRemoteMsgBytes())
	}
	return nil
}

// wordID maps a global word index to a vocabulary id with a triangular
// skew toward low ids (min of two uniform draws), so the stream has
// stable heavy hitters for TopK to find.
func wordID(seed int64, g, vocab uint64) uint64 {
	h := mix64(uint64(seed) + g*0x9e3779b97f4a7c15)
	return min((h&0xffffffff)%vocab, (h>>32)%vocab)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
