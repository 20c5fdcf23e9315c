package apps

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// KmerCountConfig parameterizes the HipMer-inspired k-mer counting
// workload of Section II: ranks stream reads, extract k-mers, and send
// each to a hash-determined owner that counts occurrences — the same
// buffered many-to-many pattern the de Bruijn graph construction in
// HipMer uses, here carried by variable-length string payloads.
type KmerCountConfig struct {
	Mailbox ygm.Options
	// ReadsPerRank is how many synthetic reads each rank generates.
	ReadsPerRank int
	// ReadLen is the length of each read in bases.
	ReadLen int
	// K is the k-mer length. Reads come from the rank's deterministic
	// transport-seeded random source.
	K int
}

// KmerCountResult is one rank's outcome.
type KmerCountResult struct {
	// Counts maps each locally owned k-mer to its global frequency.
	Counts map[string]uint64
	// TotalKmers is the number of k-mer instances this rank extracted.
	TotalKmers uint64
	Mailbox    ygm.Stats
}

// kmerOwner hashes a k-mer to a rank (FNV-1a).
func kmerOwner(kmer []byte, world int) int {
	var h uint64 = 14695981039346656037
	for _, b := range kmer {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(world))
}

var bases = []byte("ACGT")

// KmerCount runs the k-mer counting workload on one rank.
func KmerCount(p *transport.Proc, cfg KmerCountConfig) (*KmerCountResult, error) {
	if cfg.K <= 0 || cfg.ReadLen < cfg.K || cfg.ReadsPerRank < 0 {
		return nil, fmt.Errorf("apps: invalid kmer config %+v", cfg)
	}
	world := p.WorldSize()
	counts := make(map[string]uint64)
	mb := ygm.New(p, func(s ygm.Sender, payload []byte) {
		kmer, err := codec.NewReader(payload).Bytes0()
		if err != nil {
			panic(fmt.Sprintf("apps: corrupt kmer message: %v", err))
		}
		counts[string(kmer)]++
	}, ygm.WithOptions(cfg.Mailbox))

	src := p.Rng()
	read := make([]byte, cfg.ReadLen)
	var total uint64
	for r := 0; r < cfg.ReadsPerRank; r++ {
		for i := range read {
			read[i] = bases[src.Intn(4)]
		}
		for i := 0; i+cfg.K <= cfg.ReadLen; i++ {
			kmer := read[i : i+cfg.K]
			total++
			w := codec.NewWriter(cfg.K + 2)
			w.Bytes0(kmer)
			mb.Send(machine.Rank(kmerOwner(kmer, world)), w.Bytes())
		}
	}
	mb.WaitEmpty()
	return &KmerCountResult{Counts: counts, TotalKmers: total, Mailbox: mb.Stats()}, nil
}
