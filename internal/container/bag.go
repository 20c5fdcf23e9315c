package container

import (
	"ygm/internal/codec"
	"ygm/internal/machine"
)

// Bag is a distributed unordered multiset of byte-string items. Items
// have no key and no owner-by-content: AsyncInsert deals items out
// cyclically (starting from the inserting rank, so a single producer
// still spreads load), and ForAll sweeps every shard. The YGM idiom for
// work queues and edge lists.
type Bag struct {
	e     *Engine
	cid   uint64
	world int
	next  int

	local [][]byte
}

// NewBag registers a fresh Bag on the engine. Collective.
func NewBag(e *Engine) *Bag {
	b := &Bag{
		e:     e,
		world: e.p.WorldSize(),
		next:  int(e.p.Rank()),
	}
	b.cid = e.register(b)
	return b
}

// AsyncInsert ships item to the next rank in this rank's dealing cycle.
func (b *Bag) AsyncInsert(item []byte) {
	dst := machine.Rank(b.next)
	b.next++
	if b.next == b.world {
		b.next = 0
	}
	b.e.asyncInsert(dst, b.cid, item, nil)
}

// ForAll applies fn to every item, shard by shard, after a Barrier.
// Collective; fn gets a view it must not retain and must not issue
// container operations.
func (b *Bag) ForAll(fn func(item []byte)) {
	b.e.Barrier()
	for _, it := range b.local {
		fn(it)
	}
}

// Size returns the global item count (collective, includes a Barrier).
func (b *Bag) Size() uint64 {
	b.e.Barrier()
	return b.e.allreduceSum(uint64(len(b.local)))
}

// LocalSize returns this rank's shard size without synchronizing.
func (b *Bag) LocalSize() int { return len(b.local) }

// instance implementation (owner side). Bag items arrive as the key
// field of opInsert; erase/add/visit have no meaning without keys.

func (b *Bag) applyInsert(key, val []byte) {
	cp := make([]byte, len(key))
	copy(cp, key)
	b.local = append(b.local, cp)
}

func (b *Bag) applyErase(key []byte) {
	panic("container: Bag does not support opErase")
}

func (b *Bag) applyAdd(key []byte, delta uint64) {
	panic("container: Bag does not support opAdd")
}

func (b *Bag) runVisit(vid uint64, key, arg []byte) {
	panic("container: Bag does not support visitors")
}

func (b *Bag) runFetch(vid uint64, key, arg []byte, reply *codec.Writer) {
	panic("container: Bag does not support fetchers")
}

func (b *Bag) localLen() uint64 { return uint64(len(b.local)) }
