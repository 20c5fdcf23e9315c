// Package collective implements MPI-style collective operations on top
// of the transport layer: barrier, broadcast, reduce, allreduce and
// all-to-all. The synchronous mailbox's exchanges and the containers'
// global queries run on these, and the CombBLAS-style baseline uses them
// for its bulk-synchronous phases — exhibiting exactly the slowest-rank
// coupling the paper's asynchronous mailbox avoids.
//
// Every allreduce runs on one machine, Allreduce: Barrier is its
// zero-width form, AllreduceU64/AllreduceF64 wait on it, and the
// mailbox's termination detector drives it from its own progress loop.
// Bcast, the rooted reductions and the all-to-alls keep their own trees.
//
// Every operation is collective over a Comm: all member ranks must call
// the same operations in the same order. Tags are derived from a hash of
// the member list plus a per-communicator sequence number and the round
// index, so concurrent communicators and back-to-back operations do not
// cross-talk.
package collective

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// Comm is a communicator: an ordered rank group with a private tag space.
// Construct one per rank with New (or World); all members must pass the
// member list in the same order.
type Comm struct {
	p     *transport.Proc
	ranks []machine.Rank // member -> rank; nil for World: member i is rank i
	size  int
	me    int // index of p.Rank() in the members
	hash  uint64
	seq   uint64
	ar    Allreduce // on tag(0, 0), nextOp never issuing sequence 0; set up by the first reduction
}

// New builds a communicator over ranks for the calling rank p. The list
// must contain p's rank exactly once; duplicates or absent callers are
// programming errors and return an error.
func New(p *transport.Proc, ranks []machine.Rank) (*Comm, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("collective: empty communicator")
	}
	me := -1
	seen := make(map[machine.Rank]bool, len(ranks))
	for i, r := range ranks {
		if !p.Topo().Valid(r) {
			return nil, fmt.Errorf("collective: invalid rank %d in communicator", r)
		}
		if seen[r] {
			return nil, fmt.Errorf("collective: duplicate rank %d in communicator", r)
		}
		seen[r] = true
		if r == p.Rank() {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("collective: rank %d not a member of communicator", p.Rank())
	}
	members := make([]machine.Rank, len(ranks))
	copy(members, ranks)
	return &Comm{p: p, ranks: members, size: len(ranks), me: me, hash: commHash(p, ranks)}, nil
}

// World returns the communicator spanning every rank, in rank order. It
// costs O(1) per rank: the member list is the identity, so World keeps
// none, and the caller is member p.Rank().
func World(p *transport.Proc) *Comm {
	size := p.WorldSize()
	// The hash covers the world size in place of the list: the bytes New
	// would hash for the one-member list {size}, which no communicator
	// can have (size is not a valid rank).
	return &Comm{p: p, size: size, me: int(p.Rank()), hash: commHash(p, []machine.Rank{machine.Rank(size)})}
}

// commHash hashes the calling rank's next construction nonce and a
// member list. The nonce is folded in because two communicators over the
// same member list (e.g. NLNR's first and third exchange stages, or a
// stage communicator that coincides with the world) would otherwise
// share a tag space while advancing independent sequence counters —
// their traffic would cross-talk. Construction is collective, so all
// members draw the same nonce.
func commHash(p *transport.Proc, ranks []machine.Rank) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], p.CommNonce())
	h.Write(buf[:])
	for _, r := range ranks {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r))
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// Size returns the number of member ranks.
func (c *Comm) Size() int { return c.size }

// Index returns the calling rank's position within the communicator.
func (c *Comm) Index() int { return c.me }

// Rank returns member i's rank.
func (c *Comm) Rank(i int) machine.Rank {
	if c.ranks == nil {
		return machine.Rank(i)
	}
	return c.ranks[i]
}

// nextOp advances the per-communicator sequence number and returns it.
// All members advance in lockstep because operations are collective.
func (c *Comm) nextOp() uint64 {
	c.seq++
	return c.seq
}

// Collective tag layout. Every field must be disjoint from the others
// and from the two marker bits the transport layer interprets:
// TagCollective (bit 32) must be set on every tag in this space, and
// bit 63 must stay clear — TagRound = 1<<63 and stats.isDataTag
// classifies any tag >= TagRound as round-exchange data traffic.
//
//	bits  0..7   round index within one operation
//	bits  8..31  operation sequence, low 24 bits (0: the Allreduce stream)
//	bit   32     TagCollective marker
//	bits 33..40  operation sequence, high 8 bits
//	bit   41     unused (always clear)
//	bits 42..62  member-list hash (21 bits)
//	bit   63     clear (TagRound space)
//
// The sequence number is split around the marker bit so its full 32-bit
// width survives (TestTagOpFieldFullWidth).
const (
	tagHashBits  = 21
	tagHashShift = 42
	tagOpHiShift = 33
)

// foldOp spreads a 32-bit sequence number into the two op fields on
// either side of the TagCollective marker bit.
func foldOp(op uint64) transport.Tag {
	return transport.Tag((op&0xffffff)<<8) |
		transport.Tag(((op>>24)&0xff)<<tagOpHiShift)
}

// tag derives the transport tag for round `round` of operation `op`.
func (c *Comm) tag(op uint64, round int) transport.Tag {
	return transport.TagCollective |
		transport.Tag((c.hash&((1<<tagHashBits)-1))<<tagHashShift) |
		foldOp(op) |
		transport.Tag(round&0xff)
}

// indexOf maps a member rank back to its communicator index; a packet
// from a non-member is a protocol bug.
func (c *Comm) indexOf(r machine.Rank) int {
	if c.ranks == nil && int(r) < c.size {
		return int(r)
	}
	for i, m := range c.ranks {
		if m == r {
			return i
		}
	}
	panic(fmt.Sprintf("collective: packet from non-member rank %d", r))
}
