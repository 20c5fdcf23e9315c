package container

import "ygm/internal/machine"

// Partitioner maps a key to its owning rank. Implementations must be
// pure functions of (key, world): every rank computes owners locally,
// so two ranks disagreeing on an owner would silently split a key.
type Partitioner interface {
	Owner(key []byte, world int) machine.Rank
}

// HashPartitioner is the default partitioner: a splitmix64 finalizer
// over an FNV-style fold of the key bytes, uniform across ranks and
// deliberately unrelated to the partitioners applications typically use
// for their own sharding (so container placement does not correlate
// with application placement). Seed perturbs the placement, e.g. to
// decorrelate two containers holding the same key population.
type HashPartitioner struct {
	Seed uint64
}

// Owner implements Partitioner.
func (h HashPartitioner) Owner(key []byte, world int) machine.Rank {
	x := h.Seed ^ 0x9e3779b97f4a7c15
	for _, b := range key {
		x = (x ^ uint64(b)) * 0x100000001b3
	}
	return machine.Rank(splitmix64(x) % uint64(world))
}

// splitmix64 is the standard 64-bit finalizer (Steele et al.): full
// avalanche, so consecutive folds land on unrelated ranks.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
