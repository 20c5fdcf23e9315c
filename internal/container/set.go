package container

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// Set is a distributed membership set over byte-string keys, partitioned
// like Map. Inserting a present key is a no-op, so re-inserting live
// keys is allocation-free.
type Set struct {
	e     *Engine
	cid   uint64
	part  Partitioner
	world int

	local    map[string]struct{}
	visitors []func(s *Set, key, arg []byte)
	fetchers []func(s *Set, key, arg []byte, reply *codec.Writer)
}

// NewSet registers a fresh Set on the engine. Collective; nil partitioner
// means the default HashPartitioner.
func NewSet(e *Engine, part Partitioner) *Set {
	if part == nil {
		part = HashPartitioner{}
	}
	s := &Set{
		e:     e,
		part:  part,
		world: e.p.WorldSize(),
		local: make(map[string]struct{}),
	}
	s.cid = e.register(s)
	return s
}

// Owner returns the rank that stores key.
func (s *Set) Owner(key []byte) machine.Rank { return s.part.Owner(key, s.world) }

// RegisterVisitor installs a fire-and-forget visitor (same collective-
// order and no-retention contract as Map.RegisterVisitor).
func (s *Set) RegisterVisitor(fn func(s *Set, key, arg []byte)) uint64 {
	s.visitors = append(s.visitors, fn)
	return uint64(len(s.visitors) - 1)
}

// RegisterFetcher installs a reply-producing visitor for AsyncVisitFetch.
func (s *Set) RegisterFetcher(fn func(s *Set, key, arg []byte, reply *codec.Writer)) uint64 {
	s.fetchers = append(s.fetchers, fn)
	return uint64(len(s.fetchers) - 1)
}

// AsyncInsert ships key to its owner.
func (s *Set) AsyncInsert(key []byte) {
	s.e.asyncInsert(s.Owner(key), s.cid, key, nil)
}

// AsyncErase ships an erase of key to its owner.
func (s *Set) AsyncErase(key []byte) {
	s.e.asyncErase(s.Owner(key), s.cid, key)
}

// AsyncVisit runs visitor vid on key's owner (whether or not key is a
// member — the visitor checks LocalContains if it cares).
func (s *Set) AsyncVisit(vid uint64, key, arg []byte) {
	s.e.asyncVisit(s.Owner(key), s.cid, vid, key, arg)
}

// AsyncVisitFetch runs fetcher vid on key's owner and routes the reply
// back to cb. The Map.AsyncVisitFetch contract holds: cb runs in handler
// context, before AsyncVisitFetch returns for a self-owned key and by
// the end of the next Barrier in any case, and must neither retain reply
// nor call Barrier.
func (s *Set) AsyncVisitFetch(vid uint64, key, arg []byte, cb func(reply []byte)) {
	s.e.asyncFetch(s.Owner(key), s.cid, vid, key, arg, cb)
}

// LocalContains reports membership in this rank's shard.
func (s *Set) LocalContains(key []byte) bool {
	_, ok := s.local[string(key)]
	return ok
}

// ForAll applies fn to every member, shard by shard, after a Barrier.
// Collective; fn must not issue container operations.
func (s *Set) ForAll(fn func(key string)) {
	s.e.Barrier()
	for k := range s.local {
		fn(k)
	}
}

// Size returns the global member count (collective, includes a Barrier).
func (s *Set) Size() uint64 {
	s.e.Barrier()
	return s.e.allreduceSum(uint64(len(s.local)))
}

// LocalSize returns this rank's shard size without synchronizing.
func (s *Set) LocalSize() int { return len(s.local) }

// instance implementation (owner side).

func (s *Set) applyInsert(key, val []byte) {
	if _, ok := s.local[string(key)]; ok {
		return
	}
	s.local[string(key)] = struct{}{}
}

func (s *Set) applyErase(key []byte) {
	delete(s.local, string(key))
}

func (s *Set) applyAdd(key []byte, delta uint64) {
	panic("container: Set does not support opAdd")
}

func (s *Set) runVisit(vid uint64, key, arg []byte) {
	if vid >= uint64(len(s.visitors)) {
		panic(fmt.Sprintf("container: set visit with unregistered visitor %d", vid))
	}
	s.visitors[vid](s, key, arg)
}

func (s *Set) runFetch(vid uint64, key, arg []byte, reply *codec.Writer) {
	if vid >= uint64(len(s.fetchers)) {
		panic(fmt.Sprintf("container: set fetch with unregistered fetcher %d", vid))
	}
	s.fetchers[vid](s, key, arg, reply)
}

func (s *Set) localLen() uint64 { return uint64(len(s.local)) }
