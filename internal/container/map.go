package container

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// Map is a distributed key→value store. Each key lives on the rank the
// partitioner names; AsyncInsert/AsyncErase/AsyncVisit may be issued
// from any rank and are applied on the owner in mailbox-delivery order.
// Values are opaque byte strings, owned by the map (inserted values are
// copied in; an existing key's storage is reused on overwrite, so
// re-inserting live keys is allocation-free).
type Map struct {
	e     *Engine
	cid   uint64
	part  Partitioner
	world int

	local    map[string]*mapEntry
	visitors []func(m *Map, key, arg []byte)
	fetchers []func(m *Map, key, arg []byte, reply *codec.Writer)
}

// mapEntry boxes the value so overwrites mutate through the pointer:
// a Go map assignment with a converted []byte key would allocate the
// string on every update, while the boxed lookup-and-mutate path stays
// allocation-free for keys already present.
type mapEntry struct {
	val []byte
}

// NewMap registers a fresh Map on the engine. Collective: all ranks must
// construct their containers in the same order. A nil partitioner means
// the default HashPartitioner.
func NewMap(e *Engine, part Partitioner) *Map {
	if part == nil {
		part = HashPartitioner{}
	}
	m := &Map{
		e:     e,
		part:  part,
		world: e.p.WorldSize(),
		local: make(map[string]*mapEntry),
	}
	m.cid = e.register(m)
	return m
}

// Owner returns the rank that stores key.
func (m *Map) Owner(key []byte) machine.Rank { return m.part.Owner(key, m.world) }

// RegisterVisitor installs a fire-and-forget visitor and returns its id.
// Collective: every rank must register the same visitors in the same
// order, because the id — not the function — travels with AsyncVisit.
// The visitor runs on the owning rank with views of the key and argument
// bytes (valid only for the call) and may issue further async container
// operations, but must not call Barrier, Size or ForAll (they panic
// there: a collective cannot run inside a handler).
func (m *Map) RegisterVisitor(fn func(m *Map, key, arg []byte)) uint64 {
	m.visitors = append(m.visitors, fn)
	return uint64(len(m.visitors) - 1)
}

// RegisterFetcher installs a reply-producing visitor for AsyncVisitFetch
// and returns its id. Same collective-order contract as RegisterVisitor;
// whatever the fetcher writes into reply is routed back to the caller.
func (m *Map) RegisterFetcher(fn func(m *Map, key, arg []byte, reply *codec.Writer)) uint64 {
	m.fetchers = append(m.fetchers, fn)
	return uint64(len(m.fetchers) - 1)
}

// AsyncInsert ships key→val to the owner (last writer wins).
func (m *Map) AsyncInsert(key, val []byte) {
	m.e.asyncInsert(m.Owner(key), m.cid, key, val)
}

// AsyncErase ships an erase of key to the owner.
func (m *Map) AsyncErase(key []byte) {
	m.e.asyncErase(m.Owner(key), m.cid, key)
}

// AsyncVisit runs the registered visitor vid on key's owner with arg.
func (m *Map) AsyncVisit(vid uint64, key, arg []byte) {
	m.e.asyncVisit(m.Owner(key), m.cid, vid, key, arg)
}

// AsyncVisitFetch runs fetcher vid on key's owner and routes its reply
// to cb on this rank. The reply is a mailbox record like any other, so:
//   - cb runs in handler context, with a handler's rights and limits;
//   - for a self-owned key it runs before AsyncVisitFetch returns;
//   - it always runs by the end of the next Engine.Barrier;
//   - it must not retain reply (a view into a pooled delivery buffer)
//     or call Barrier, which panics there.
//
// Read-your-writes: operations this rank issued on key before the fetch
// are applied before the fetcher runs, because both ride the same
// mailbox channel in order.
func (m *Map) AsyncVisitFetch(vid uint64, key, arg []byte, cb func(reply []byte)) {
	m.e.asyncFetch(m.Owner(key), m.cid, vid, key, arg, cb)
}

// LocalGet returns the value stored for key on this rank, as a view the
// caller must not retain or mutate. Owner-side accessor: visitors and
// ForAll bodies use it; calling it for a key this rank does not own just
// finds nothing.
func (m *Map) LocalGet(key []byte) ([]byte, bool) {
	ent, ok := m.local[string(key)]
	if !ok {
		return nil, false
	}
	return ent.val, true
}

// LocalPut stores key→val on this rank directly (owner-side mutation
// for visitors that compute a new value in place).
func (m *Map) LocalPut(key, val []byte) { m.applyInsert(key, val) }

// LocalErase removes key from this rank's shard.
func (m *Map) LocalErase(key []byte) { m.applyErase(key) }

// ForAll applies fn to every key→value pair, shard by shard on each
// owning rank, after a full Barrier. Collective. Iteration order within
// a shard is unspecified; fn must not issue container operations.
func (m *Map) ForAll(fn func(key string, val []byte)) {
	m.e.Barrier()
	for k, ent := range m.local {
		fn(k, ent.val)
	}
}

// Size returns the global number of keys. Collective; includes a full
// Barrier so every in-flight insert and erase is counted.
func (m *Map) Size() uint64 {
	m.e.Barrier()
	return m.e.allreduceSum(uint64(len(m.local)))
}

// LocalSize returns this rank's shard size without synchronizing.
func (m *Map) LocalSize() int { return len(m.local) }

// instance implementation (owner side).

func (m *Map) applyInsert(key, val []byte) {
	if ent, ok := m.local[string(key)]; ok {
		ent.val = append(ent.val[:0], val...)
		return
	}
	// val borrows the delivery buffer, which is recycled after the
	// handler returns: a first insert keeps a copy.
	cp := make([]byte, len(val))
	copy(cp, val)
	m.local[string(key)] = &mapEntry{val: cp}
}

func (m *Map) applyErase(key []byte) {
	delete(m.local, string(key))
}

func (m *Map) applyAdd(key []byte, delta uint64) {
	panic("container: Map does not support opAdd")
}

func (m *Map) runVisit(vid uint64, key, arg []byte) {
	if vid >= uint64(len(m.visitors)) {
		panic(fmt.Sprintf("container: map visit with unregistered visitor %d", vid))
	}
	m.visitors[vid](m, key, arg)
}

func (m *Map) runFetch(vid uint64, key, arg []byte, reply *codec.Writer) {
	if vid >= uint64(len(m.fetchers)) {
		panic(fmt.Sprintf("container: map fetch with unregistered fetcher %d", vid))
	}
	m.fetchers[vid](m, key, arg, reply)
}

func (m *Map) localLen() uint64 { return uint64(len(m.local)) }
